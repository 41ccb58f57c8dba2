//! Quadrants, child-cell orderings and query-case classification.
//!
//! A node of a (generalized) Z-index partitions its cell into four quadrants
//! around a split point `h = (x, y)`. Following Algorithm 1 of the paper,
//! the quadrant of a point `p` is computed from the two comparison bits
//! `bit_x = p.x > h.x` and `bit_y = p.y > h.y`.
//!
//! The paper fixes the *spatial* labels `A`, `B`, `C`, `D` of the quadrants
//! (bottom-left, bottom-right, top-left, top-right respectively — this is the
//! assignment that makes the cost formulas of Eqs. (1) and (2) consistent with
//! Algorithm 1) and lets the *curve order* of the children be either `abcd`
//! or `acbd`. Both orderings keep the bottom-left quadrant first and the
//! top-right quadrant last, which is exactly the condition required for the
//! ordering to preserve dominance monotonicity.

use crate::point::Point;
use crate::rect::Rect;

/// The four spatial quadrants of a split cell.
///
/// The discriminant encodes the comparison bits of Algorithm 1:
/// `quadrant as u8 == 2 * bit_y + bit_x`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Quadrant {
    /// `A`: bottom-left (x <= split.x, y <= split.y).
    A = 0,
    /// `B`: bottom-right (x > split.x, y <= split.y).
    B = 1,
    /// `C`: top-left (x <= split.x, y > split.y).
    C = 2,
    /// `D`: top-right (x > split.x, y > split.y).
    D = 3,
}

impl Quadrant {
    /// All quadrants in spatial-label order `A, B, C, D`.
    pub const ALL: [Quadrant; 4] = [Quadrant::A, Quadrant::B, Quadrant::C, Quadrant::D];

    /// Classifies a point relative to a split point (Lines 4–5 of
    /// Algorithm 1).
    #[inline]
    pub fn of(point: &Point, split: &Point) -> Quadrant {
        let bit_x = usize::from(point.x > split.x);
        let bit_y = usize::from(point.y > split.y);
        // A table lookup, not a branch per bit: this sits on every level of
        // the Algorithm-1 descent.
        Quadrant::ALL[(bit_y << 1) | bit_x]
    }

    /// Index `0..4` of the quadrant in spatial-label order.
    #[inline]
    pub fn label_index(self) -> usize {
        self as usize
    }

    /// The sub-rectangle of `cell` covered by this quadrant for the given
    /// split point. The split point itself belongs to quadrant `A`
    /// (closed on the low side), matching the strict `>` comparisons of
    /// Algorithm 1.
    pub fn region(self, cell: &Rect, split: &Point) -> Rect {
        let sx = split.x.clamp(cell.lo.x, cell.hi.x);
        let sy = split.y.clamp(cell.lo.y, cell.hi.y);
        match self {
            Quadrant::A => Rect::from_coords(cell.lo.x, cell.lo.y, sx, sy),
            Quadrant::B => Rect::from_coords(sx, cell.lo.y, cell.hi.x, sy),
            Quadrant::C => Rect::from_coords(cell.lo.x, sy, sx, cell.hi.y),
            Quadrant::D => Rect::from_coords(sx, sy, cell.hi.x, cell.hi.y),
        }
    }
}

/// Curve ordering of the four child cells of a node.
///
/// Both orderings place `A` (bottom-left) first and `D` (top-right) last and
/// therefore preserve the dominance monotonicity of the leaf list; they only
/// differ in whether the bottom-right (`B`) or top-left (`C`) child comes
/// second. The base Z-index always uses [`CellOrdering::Abcd`]; WaZI chooses
/// per node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CellOrdering {
    /// `A, B, C, D` — the classic Z / N-shaped curve.
    #[default]
    Abcd,
    /// `A, C, B, D` — the mirrored curve.
    Acbd,
}

impl CellOrdering {
    /// Both orderings, convenient for enumerating candidates during greedy
    /// construction (Line 3 of Algorithm 3).
    pub const ALL: [CellOrdering; 2] = [CellOrdering::Abcd, CellOrdering::Acbd];

    /// Quadrants in curve order (position -> quadrant).
    #[inline]
    pub fn curve(&self) -> [Quadrant; 4] {
        match self {
            CellOrdering::Abcd => [Quadrant::A, Quadrant::B, Quadrant::C, Quadrant::D],
            CellOrdering::Acbd => [Quadrant::A, Quadrant::C, Quadrant::B, Quadrant::D],
        }
    }

    /// Curve position of a quadrant (quadrant -> position), the `cid`
    /// computed in Lines 6–9 of Algorithm 1.
    #[inline]
    pub fn position(&self, quadrant: Quadrant) -> usize {
        const POSITION: [[usize; 4]; 2] = [[0, 1, 2, 3], [0, 2, 1, 3]];
        POSITION[*self as usize][quadrant as usize]
    }

    /// Child id for a point query, exactly Lines 4–9 of Algorithm 1.
    #[inline]
    pub fn child_of(&self, point: &Point, split: &Point) -> usize {
        self.position(Quadrant::of(point, split))
    }
}

impl std::fmt::Display for CellOrdering {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CellOrdering::Abcd => write!(f, "abcd"),
            CellOrdering::Acbd => write!(f, "acbd"),
        }
    }
}

/// Classification of a range query relative to a split point: the quadrants
/// containing its bottom-left and top-right corners (`δ_{R ∈ XY}` in the
/// paper's cost formulas).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QueryCase {
    /// Quadrant containing `BL(R)`.
    pub bl: Quadrant,
    /// Quadrant containing `TR(R)`.
    pub tr: Quadrant,
}

impl QueryCase {
    /// The nine cases a rectangle with ordered corners can fall into, the
    /// `δ_{R ∈ XY}` terms of Eq. (1): `BL(R)` is dominated by `TR(R)`, so
    /// neither comparison bit of `tr` can be below the same bit of `bl`.
    pub const LEGAL: [QueryCase; 9] = {
        use Quadrant::*;
        const fn case(bl: Quadrant, tr: Quadrant) -> QueryCase {
            QueryCase { bl, tr }
        }
        [
            case(A, A),
            case(B, B),
            case(C, C),
            case(D, D),
            case(A, B),
            case(C, D),
            case(A, C),
            case(B, D),
            case(A, D),
        ]
    };

    /// Dense index `4 * bl + tr` of the case, in `0..16`, for tables keyed
    /// by case.
    #[inline]
    pub fn index(&self) -> usize {
        4 * self.bl.label_index() + self.tr.label_index()
    }

    /// Classifies a query rectangle against a split point.
    #[inline]
    pub fn classify(query: &Rect, split: &Point) -> QueryCase {
        QueryCase {
            bl: Quadrant::of(&query.bl(), split),
            tr: Quadrant::of(&query.tr(), split),
        }
    }

    /// Returns `true` when the query is wholly contained in a single
    /// quadrant (the `δ_{R ∈ XX}` cases of Eq. (1)).
    #[inline]
    pub fn is_contained(&self) -> bool {
        self.bl == self.tr
    }

    /// The set of quadrants overlapped by a query in this case.
    ///
    /// Because `BL(R)` is dominated by `TR(R)` the possible cases are the
    /// nine listed in Eq. (1): `AA, BB, CC, DD, AB, CD, AC, BD, AD`. The
    /// overlapped quadrants follow directly from which corners the query
    /// spans. The seven remaining `(bl, tr)` pairs can only arise from
    /// rectangles whose corners are not ordered; they are treated as
    /// overlapping the two end quadrants.
    #[inline]
    pub fn overlapped(&self) -> &'static [Quadrant] {
        use Quadrant::*;
        // Indexed by `QueryCase::index`.
        const OVERLAPPED: [&[Quadrant]; 16] = [
            &[A],
            &[A, B],
            &[A, C],
            &[A, B, C, D],
            &[B, A],
            &[B],
            &[B, C],
            &[B, D],
            &[C, A],
            &[C, B],
            &[C],
            &[C, D],
            &[D, A],
            &[D, B],
            &[D, C],
            &[D],
        ];
        OVERLAPPED[self.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPLIT: Point = Point::new(0.5, 0.5);

    #[test]
    fn quadrant_classification_matches_algorithm_1() {
        assert_eq!(Quadrant::of(&Point::new(0.2, 0.2), &SPLIT), Quadrant::A);
        assert_eq!(Quadrant::of(&Point::new(0.7, 0.2), &SPLIT), Quadrant::B);
        assert_eq!(Quadrant::of(&Point::new(0.2, 0.7), &SPLIT), Quadrant::C);
        assert_eq!(Quadrant::of(&Point::new(0.7, 0.7), &SPLIT), Quadrant::D);
        // Points on the split boundary use `>` so they fall to the low side.
        assert_eq!(Quadrant::of(&SPLIT, &SPLIT), Quadrant::A);
    }

    #[test]
    fn orderings_keep_a_first_and_d_last() {
        for ordering in CellOrdering::ALL {
            let curve = ordering.curve();
            assert_eq!(curve[0], Quadrant::A);
            assert_eq!(curve[3], Quadrant::D);
            // position() must be the inverse of curve()
            for (pos, q) in curve.iter().enumerate() {
                assert_eq!(ordering.position(*q), pos);
            }
        }
    }

    #[test]
    fn child_of_matches_paper_bit_arithmetic() {
        // abcd: cid = 2*bit_y + bit_x ; acbd: cid = 2*bit_x + bit_y
        let cases = [
            (Point::new(0.1, 0.1), 0usize, 0usize),
            (Point::new(0.9, 0.1), 1, 2),
            (Point::new(0.1, 0.9), 2, 1),
            (Point::new(0.9, 0.9), 3, 3),
        ];
        for (p, abcd, acbd) in cases {
            assert_eq!(CellOrdering::Abcd.child_of(&p, &SPLIT), abcd);
            assert_eq!(CellOrdering::Acbd.child_of(&p, &SPLIT), acbd);
        }
    }

    #[test]
    fn regions_tile_the_cell() {
        let cell = Rect::from_coords(0.0, 0.0, 1.0, 1.0);
        let split = Point::new(0.3, 0.6);
        let total: f64 = Quadrant::ALL
            .iter()
            .map(|q| q.region(&cell, &split).area())
            .sum();
        assert!((total - cell.area()).abs() < 1e-12);
        assert_eq!(
            Quadrant::A.region(&cell, &split),
            Rect::from_coords(0.0, 0.0, 0.3, 0.6)
        );
        assert_eq!(
            Quadrant::D.region(&cell, &split),
            Rect::from_coords(0.3, 0.6, 1.0, 1.0)
        );
    }

    #[test]
    fn region_clamps_split_outside_cell() {
        let cell = Rect::from_coords(0.0, 0.0, 1.0, 1.0);
        let split = Point::new(2.0, -1.0);
        let a = Quadrant::A.region(&cell, &split);
        assert_eq!(a, Rect::from_coords(0.0, 0.0, 1.0, 0.0));
        let d = Quadrant::D.region(&cell, &split);
        assert_eq!(d, Rect::from_coords(1.0, 0.0, 1.0, 1.0));
    }

    #[test]
    fn ordered_rectangles_fall_into_exactly_the_nine_legal_cases() {
        let coords = [0.2, 0.5, 0.8];
        let mut seen = std::collections::HashSet::new();
        for (x0, y0, x1, y1) in coords
            .iter()
            .flat_map(|a| coords.iter().map(move |b| (a, b)))
            .flat_map(|(a, b)| coords.iter().map(move |c| (a, b, c)))
            .flat_map(|(a, b, c)| coords.iter().map(move |d| (*a, *b, *c, *d)))
        {
            if x0 <= x1 && y0 <= y1 {
                seen.insert(QueryCase::classify(
                    &Rect::from_coords(x0, y0, x1, y1),
                    &SPLIT,
                ));
            }
        }
        assert_eq!(seen, QueryCase::LEGAL.into_iter().collect());
        let slots: std::collections::HashSet<usize> =
            QueryCase::LEGAL.iter().map(QueryCase::index).collect();
        assert_eq!(slots.len(), 9);
    }

    #[test]
    fn query_case_classification() {
        // Query spanning the whole cell.
        let q = Rect::from_coords(0.1, 0.1, 0.9, 0.9);
        let case = QueryCase::classify(&q, &SPLIT);
        assert_eq!(case.bl, Quadrant::A);
        assert_eq!(case.tr, Quadrant::D);
        assert_eq!(case.overlapped(), Quadrant::ALL);
        assert!(!case.is_contained());

        // Query contained in the top-right quadrant.
        let q = Rect::from_coords(0.6, 0.6, 0.9, 0.9);
        let case = QueryCase::classify(&q, &SPLIT);
        assert!(case.is_contained());
        assert_eq!(case.overlapped(), [Quadrant::D]);

        // Left-half vertical span: A to C.
        let q = Rect::from_coords(0.1, 0.1, 0.4, 0.9);
        let case = QueryCase::classify(&q, &SPLIT);
        assert_eq!((case.bl, case.tr), (Quadrant::A, Quadrant::C));
        assert_eq!(case.overlapped(), [Quadrant::A, Quadrant::C]);

        // Bottom-half horizontal span: A to B.
        let q = Rect::from_coords(0.1, 0.1, 0.9, 0.4);
        let case = QueryCase::classify(&q, &SPLIT);
        assert_eq!((case.bl, case.tr), (Quadrant::A, Quadrant::B));
        assert_eq!(case.overlapped(), [Quadrant::A, Quadrant::B]);
    }
}
