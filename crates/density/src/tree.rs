//! A single randomized count k-d tree, the building block of the RFDE forest.

use rand::rngs::StdRng;
use rand::Rng;
use wazi_geom::{Point, Rect};

/// Axis of a k-d split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// Split on the x coordinate.
    X,
    /// Split on the y coordinate.
    Y,
}

impl Axis {
    #[inline]
    fn coord(&self, p: &Point) -> f64 {
        match self {
            Axis::X => p.x,
            Axis::Y => p.y,
        }
    }

    #[inline]
    fn other(&self) -> Axis {
        match self {
            Axis::X => Axis::Y,
            Axis::Y => Axis::X,
        }
    }
}

/// A node of the count k-d tree stored in an index-based arena.
#[derive(Debug, Clone)]
pub(crate) struct Node {
    /// Tight bounding box of the points below this node.
    pub region: Rect,
    /// Total weight (cardinality for unweighted data) of points below this
    /// node.
    pub weight: f64,
    /// Split information; `None` for leaves.
    pub split: Option<Split>,
}

#[derive(Debug, Clone)]
pub(crate) struct Split {
    pub axis: Axis,
    pub value: f64,
    pub left: u32,
    pub right: u32,
}

/// A k-d tree whose nodes store the (weighted) number of data points in their
/// region. Density estimation is a tree traversal that sums node weights,
/// pro-rating partially overlapped leaves by area (uniformity assumption
/// within a leaf bounding box), exactly the "collect cardinality information
/// from nodes overlapping the density estimation query" procedure the paper
/// describes for its RFDE models.
#[derive(Debug, Clone)]
pub struct CountKdTree {
    nodes: Vec<Node>,
    root: u32,
    total_weight: f64,
    leaf_count: usize,
}

/// Construction parameters for one tree.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TreeParams {
    pub leaf_weight: f64,
    pub max_depth: usize,
}

impl CountKdTree {
    /// Builds a tree over weighted items ([`Point`]s of weight one, or
    /// `(point, weight)` pairs), reordering `data` in place.
    ///
    /// `rng` drives the randomized choice of split dimension at every node
    /// — one `gen_bool` per node that may split, in depth-first pre-order —
    /// which is what makes a *forest* of such trees a variance-reducing
    /// estimator (Wen & Hang, 2022). Every node costs one selection and at
    /// most one partition pass over its slice, `O(n log n)` for the tree.
    pub(crate) fn fit<T: Item>(data: &mut [T], params: TreeParams, rng: &mut StdRng) -> Self {
        let mut nodes = Vec::new();
        let total_weight: f64 = data.iter().map(Item::weight).sum();
        let mut leaf_count = 0usize;
        let root = if data.is_empty() {
            nodes.push(Node {
                region: Rect::EMPTY,
                weight: 0.0,
                split: None,
            });
            leaf_count = 1;
            0
        } else {
            build_node(data, params, rng, 0, &mut nodes, &mut leaf_count)
        };
        Self {
            nodes,
            root,
            total_weight,
            leaf_count,
        }
    }

    /// Total weight indexed by the tree.
    pub fn total_weight(&self) -> f64 {
        self.total_weight
    }

    /// Number of leaf nodes.
    pub fn leaf_count(&self) -> usize {
        self.leaf_count
    }

    /// Number of nodes (internal + leaf).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Estimated weight of points falling inside `query`.
    pub fn estimate(&self, query: &Rect) -> f64 {
        if self.nodes.is_empty() || query.is_empty() {
            return 0.0;
        }
        self.estimate_node(self.root, query)
    }

    fn estimate_node(&self, idx: u32, query: &Rect) -> f64 {
        let node = &self.nodes[idx as usize];
        if node.weight == 0.0 || !query.overlaps(&node.region) {
            return 0.0;
        }
        if query.contains_rect(&node.region) {
            return node.weight;
        }
        match &node.split {
            Some(split) => {
                // Prune by the split plane before touching the children:
                // left holds coordinates `<= value`, right holds `> value`,
                // so a query strictly on one side never needs the other
                // child's node at all.
                let (q_lo, q_hi) = match split.axis {
                    Axis::X => (query.lo.x, query.hi.x),
                    Axis::Y => (query.lo.y, query.hi.y),
                };
                let mut sum = 0.0;
                if q_lo <= split.value {
                    sum += self.estimate_node(split.left, query);
                }
                if q_hi > split.value {
                    sum += self.estimate_node(split.right, query);
                }
                sum
            }
            None => {
                // Partially overlapped leaf: assume uniform density within
                // the leaf bounding box. The overlap fraction is computed per
                // axis so that degenerate boxes (points on a segment or a
                // single spot) are pro-rated along their non-degenerate axis
                // instead of being counted fully.
                let Some(overlap) = node.region.intersection(query) else {
                    return 0.0;
                };
                let frac_x = axis_fraction(node.region.width(), overlap.width());
                let frac_y = axis_fraction(node.region.height(), overlap.height());
                node.weight * frac_x * frac_y
            }
        }
    }

    /// Approximate in-memory size in bytes (used for index-size accounting of
    /// learned components).
    pub fn size_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.nodes.len() * std::mem::size_of::<Node>()
    }
}

/// Fraction of a leaf's extent along one axis covered by the query overlap.
/// A zero extent means every point shares that coordinate, so the overlap
/// (already known to be non-empty) covers all of them on that axis.
#[inline]
fn axis_fraction(extent: f64, overlap: f64) -> f64 {
    if extent > 0.0 {
        (overlap / extent).clamp(0.0, 1.0)
    } else {
        1.0
    }
}

/// What a tree is fitted on: a point and its weight. Implemented for bare
/// [`Point`]s (weight one) and `(point, weight)` pairs, so the unweighted
/// forest sorts 16-byte items and both share one fitting path.
pub(crate) trait Item: Copy {
    fn point(&self) -> &Point;
    fn weight(&self) -> f64;
}

impl Item for Point {
    #[inline]
    fn point(&self) -> &Point {
        self
    }

    #[inline]
    fn weight(&self) -> f64 {
        1.0
    }
}

impl Item for (Point, f64) {
    #[inline]
    fn point(&self) -> &Point {
        &self.0
    }

    #[inline]
    fn weight(&self) -> f64 {
        self.1
    }
}

fn build_node<T: Item>(
    data: &mut [T],
    params: TreeParams,
    rng: &mut StdRng,
    depth: usize,
    nodes: &mut Vec<Node>,
    leaf_count: &mut usize,
) -> u32 {
    let mut weight = 0.0;
    let mut region = Rect::EMPTY;
    for item in data.iter() {
        weight += item.weight();
        region.expand(item.point());
    }
    let idx = nodes.len() as u32;
    nodes.push(Node {
        region,
        weight,
        split: None,
    });

    let should_split = weight > params.leaf_weight && depth < params.max_depth && data.len() > 1;
    if !should_split {
        *leaf_count += 1;
        return idx;
    }

    // Randomized split dimension; the split value is the midpoint between the
    // two points adjacent to the median along that dimension, which keeps the
    // two halves non-empty whenever the coordinate is not constant.
    let axis = if rng.gen_bool(0.5) { Axis::X } else { Axis::Y };
    let split = split_at_median(data, axis, &region)
        .or_else(|| split_at_median(data, axis.other(), &region));
    let Some((axis, split_value, boundary)) = split else {
        // All points identical on both axes: cannot split further.
        *leaf_count += 1;
        return idx;
    };

    let (left_data, right_data) = data.split_at_mut(boundary);
    debug_assert!(!left_data.is_empty() && !right_data.is_empty());

    let left = build_node(left_data, params, rng, depth + 1, nodes, leaf_count);
    let right = build_node(right_data, params, rng, depth + 1, nodes, leaf_count);
    nodes[idx as usize].split = Some(Split {
        axis,
        value: split_value,
        left,
        right,
    });
    idx
}

/// Chooses the median-based split value along `axis` and reorders `data` so
/// that the items with coordinate `<= value` come first, returning the value
/// and the boundary index — or `None`, with `data` untouched, when every
/// point shares the same coordinate on that axis. `region` is the tight
/// bounding box of `data`, which already holds the coordinate range.
///
/// One selection puts the upper median in place with nothing larger before
/// it; the lower median is then the maximum of the left part, so the two
/// values are exactly `sorted[mid - 1]` and `sorted[mid]` without sorting.
fn split_at_median<T: Item>(
    data: &mut [T],
    axis: Axis,
    region: &Rect,
) -> Option<(Axis, f64, usize)> {
    let (lo, hi) = match axis {
        Axis::X => (region.lo.x, region.hi.x),
        Axis::Y => (region.lo.y, region.hi.y),
    };
    if lo == hi {
        return None;
    }
    let mid = data.len() / 2;
    let (left, median, _) = data.select_nth_unstable_by(mid, |a, b| {
        axis.coord(a.point()).total_cmp(&axis.coord(b.point()))
    });
    let upper = axis.coord(median.point());
    let lower = left
        .iter()
        .map(|item| axis.coord(item.point()))
        .max_by(f64::total_cmp)
        .expect("a splitting node holds at least two items");
    let mut value = 0.5 * (lower + upper);
    if value <= lo || value >= hi {
        // Heavily duplicated median coordinate; fall back to the midpoint of
        // the coordinate range so both halves stay non-empty.
        value = 0.5 * (lo + hi);
    }
    let boundary = if lower <= value && value < upper {
        // The selection already separated the halves at the median.
        mid
    } else {
        let mut boundary = 0;
        for i in 0..data.len() {
            if axis.coord(data[i].point()) <= value {
                data.swap(boundary, i);
                boundary += 1;
            }
        }
        boundary
    };
    Some((axis, value, boundary))
}

/// The sort-based fit this crate shipped before the selection-based one:
/// two full sorts per node. Kept as the reference the tests compare
/// [`CountKdTree::fit`] against, node for node.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    pub(crate) fn fit(
        data: &mut [(Point, f64)],
        params: TreeParams,
        rng: &mut StdRng,
    ) -> CountKdTree {
        let mut nodes = Vec::new();
        let total_weight: f64 = data.iter().map(|(_, w)| w).sum();
        let mut leaf_count = 0usize;
        let root = if data.is_empty() {
            nodes.push(Node {
                region: Rect::EMPTY,
                weight: 0.0,
                split: None,
            });
            leaf_count = 1;
            0
        } else {
            build_node(data, params, rng, 0, &mut nodes, &mut leaf_count)
        };
        CountKdTree {
            nodes,
            root,
            total_weight,
            leaf_count,
        }
    }

    fn build_node(
        data: &mut [(Point, f64)],
        params: TreeParams,
        rng: &mut StdRng,
        depth: usize,
        nodes: &mut Vec<Node>,
        leaf_count: &mut usize,
    ) -> u32 {
        let weight: f64 = data.iter().map(|(_, w)| w).sum();
        let region = {
            let mut acc = Rect::EMPTY;
            for (p, _) in data.iter() {
                acc.expand(p);
            }
            acc
        };
        let idx = nodes.len() as u32;
        nodes.push(Node {
            region,
            weight,
            split: None,
        });

        let should_split =
            weight > params.leaf_weight && depth < params.max_depth && data.len() > 1;
        if !should_split {
            *leaf_count += 1;
            return idx;
        }

        let axis = if rng.gen_bool(0.5) { Axis::X } else { Axis::Y };
        let split = choose_split(data, axis).or_else(|| choose_split(data, axis.other()));
        let Some((axis, split_value)) = split else {
            *leaf_count += 1;
            return idx;
        };

        let partition = partition_by(data, axis, split_value);
        let (left_data, right_data) = data.split_at_mut(partition);
        let left = build_node(left_data, params, rng, depth + 1, nodes, leaf_count);
        let right = build_node(right_data, params, rng, depth + 1, nodes, leaf_count);
        nodes[idx as usize].split = Some(Split {
            axis,
            value: split_value,
            left,
            right,
        });
        idx
    }

    fn choose_split(data: &mut [(Point, f64)], axis: Axis) -> Option<(Axis, f64)> {
        data.sort_unstable_by(|a, b| axis.coord(&a.0).total_cmp(&axis.coord(&b.0)));
        let lo = axis.coord(&data[0].0);
        let hi = axis.coord(&data[data.len() - 1].0);
        if lo == hi {
            return None;
        }
        let mid = data.len() / 2;
        let mut value = 0.5 * (axis.coord(&data[mid - 1].0) + axis.coord(&data[mid].0));
        if value <= lo || value >= hi {
            value = 0.5 * (lo + hi);
        }
        Some((axis, value))
    }

    fn partition_by(data: &mut [(Point, f64)], axis: Axis, value: f64) -> usize {
        data.sort_unstable_by(|a, b| axis.coord(&a.0).total_cmp(&axis.coord(&b.0)));
        data.iter()
            .position(|(p, _)| axis.coord(p) > value)
            .unwrap_or(data.len())
    }

    /// Node-for-node equality, floats by bit pattern.
    pub(crate) fn assert_same_tree(got: &CountKdTree, want: &CountKdTree, what: &str) {
        assert_eq!(got.nodes.len(), want.nodes.len(), "{what}: node count");
        assert_eq!(got.leaf_count, want.leaf_count, "{what}: leaf count");
        assert_eq!(got.root, want.root, "{what}: root");
        assert_eq!(
            got.total_weight.to_bits(),
            want.total_weight.to_bits(),
            "{what}: total weight"
        );
        for (i, (g, w)) in got.nodes.iter().zip(&want.nodes).enumerate() {
            assert_eq!(g.region, w.region, "{what}: node {i} region");
            assert_eq!(
                g.weight.to_bits(),
                w.weight.to_bits(),
                "{what}: node {i} weight"
            );
            let split = |n: &Node| {
                n.split
                    .as_ref()
                    .map(|s| (s.axis, s.value.to_bits(), s.left, s.right))
            };
            assert_eq!(split(g), split(w), "{what}: node {i} split");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::assert_same_tree;
    use super::*;
    use rand::SeedableRng;

    /// Fits `points` three ways under one seed — the reference on pairs, the
    /// selection-based fit on pairs and on bare points when every weight is
    /// one — and demands the same tree from all of them.
    fn assert_matches_reference(points: &[(Point, f64)], leaf_weight: f64, what: &str) {
        let params = TreeParams {
            leaf_weight,
            max_depth: 40,
        };
        for seed in [7u64, 8, 9] {
            let what = format!("{what}, n {}, seed {seed}", points.len());
            let want = reference::fit(
                &mut points.to_vec(),
                params,
                &mut StdRng::seed_from_u64(seed),
            );
            let got = CountKdTree::fit(
                &mut points.to_vec(),
                params,
                &mut StdRng::seed_from_u64(seed),
            );
            assert_same_tree(&got, &want, &what);
            if points.iter().all(|(_, w)| *w == 1.0) {
                let mut bare: Vec<Point> = points.iter().map(|(p, _)| *p).collect();
                let got = CountKdTree::fit(&mut bare, params, &mut StdRng::seed_from_u64(seed));
                assert_same_tree(&got, &want, &format!("{what}, bare points"));
            }
        }
    }

    fn unit(points: impl IntoIterator<Item = Point>) -> Vec<(Point, f64)> {
        points.into_iter().map(|p| (p, 1.0)).collect()
    }

    #[test]
    fn selection_fit_equals_the_sort_based_reference() {
        let mut rng = StdRng::seed_from_u64(0xF17);
        for n in [0usize, 1, 2, 3, 64, 65, 1_000, 50_000] {
            let uniform = unit((0..n).map(|_| Point::new(rng.gen(), rng.gen())));
            assert_matches_reference(&uniform, 8.0, "uniform");

            // Three tight clusters on a thin uniform background.
            let clustered = unit((0..n).map(|i| {
                let (cx, cy) = [(0.2, 0.2), (0.7, 0.3), (0.5, 0.9)][i % 3];
                if i % 10 == 9 {
                    Point::new(rng.gen(), rng.gen())
                } else {
                    Point::new(cx + 0.01 * rng.gen::<f64>(), cy + 0.01 * rng.gen::<f64>())
                }
            }));
            assert_matches_reference(&clustered, 8.0, "clustered");

            // Integer-valued weights: every partial sum is exact, so node
            // weights cannot depend on the order fitting leaves points in.
            let weighted: Vec<(Point, f64)> = uniform
                .iter()
                .map(|(p, _)| (*p, rng.gen_range(0u32..50) as f64))
                .collect();
            assert_matches_reference(&weighted, 100.0, "integer weights");
        }
    }

    #[test]
    fn selection_fit_equals_the_reference_on_duplicated_coordinates() {
        // A grid with every point repeated four times: the median pair is
        // equal at almost every node, which exercises the partition pass
        // and the range-midpoint fallback.
        let side = 24;
        let grid = unit((0..side * side * 4).map(|i| {
            let cell = i / 4;
            Point::new((cell % side) as f64 / 24.0, (cell / side) as f64 / 24.0)
        }));
        assert_matches_reference(&grid, 4.0, "repeated grid");

        // All x equal: the first axis drawn cannot split half of the time.
        let column = unit((0..500).map(|i| Point::new(0.5, (i % 97) as f64 / 97.0)));
        assert_matches_reference(&column, 4.0, "equal x");

        // Two distinct values only, unevenly split, zero and negative zero
        // among them (equal as coordinates, distinct under `total_cmp`).
        let two = unit((0..301).map(|i| {
            let x = if i % 3 == 0 { 0.25 } else { 0.75 };
            let y = if i % 5 == 0 { -0.0 } else { 0.0 };
            Point::new(x, y)
        }));
        assert_matches_reference(&two, 4.0, "two values");
        let signed_zero = unit((0..64).map(|i| {
            Point::new(
                if i % 2 == 0 { -0.0 } else { 0.0 },
                [-1.0, -0.0, 0.0, 1.0][i % 4],
            )
        }));
        assert_matches_reference(&signed_zero, 2.0, "signed zeros");

        let same = unit((0..100).map(|_| Point::new(0.5, 0.5)));
        assert_matches_reference(&same, 4.0, "one value");
    }

    fn grid_points(n: usize) -> Vec<(Point, f64)> {
        // n x n grid of unit-weight points strictly inside the unit square.
        let mut pts = Vec::with_capacity(n * n);
        for i in 0..n {
            for j in 0..n {
                let x = (i as f64 + 0.5) / n as f64;
                let y = (j as f64 + 0.5) / n as f64;
                pts.push((Point::new(x, y), 1.0));
            }
        }
        pts
    }

    fn fit(data: &mut [(Point, f64)], leaf_weight: f64) -> CountKdTree {
        let mut rng = StdRng::seed_from_u64(7);
        CountKdTree::fit(
            data,
            TreeParams {
                leaf_weight,
                max_depth: 32,
            },
            &mut rng,
        )
    }

    #[test]
    fn full_space_query_returns_total_weight() {
        let mut data = grid_points(20);
        let tree = fit(&mut data, 8.0);
        assert_eq!(tree.total_weight(), 400.0);
        assert!((tree.estimate(&Rect::UNIT) - 400.0).abs() < 1e-9);
    }

    #[test]
    fn half_space_query_is_roughly_half() {
        let mut data = grid_points(32);
        let tree = fit(&mut data, 16.0);
        let half = Rect::from_coords(0.0, 0.0, 0.5, 1.0);
        let estimate = tree.estimate(&half);
        let exact = 512.0;
        assert!(
            (estimate - exact).abs() / exact < 0.10,
            "estimate {estimate} too far from {exact}"
        );
    }

    #[test]
    fn empty_input_and_disjoint_queries_estimate_zero() {
        let tree = fit(&mut [], 4.0);
        assert_eq!(tree.estimate(&Rect::UNIT), 0.0);

        let mut data = grid_points(8);
        let tree = fit(&mut data, 4.0);
        assert_eq!(tree.estimate(&Rect::EMPTY), 0.0);
        assert_eq!(tree.estimate(&Rect::from_coords(2.0, 2.0, 3.0, 3.0)), 0.0);
    }

    #[test]
    fn weighted_points_are_summed_exactly_for_separating_queries() {
        let mut data = vec![(Point::new(0.25, 0.25), 3.0), (Point::new(0.75, 0.75), 7.0)];
        let tree = fit(&mut data, 1.0);
        assert_eq!(tree.total_weight(), 10.0);
        let left = tree.estimate(&Rect::from_coords(0.0, 0.0, 0.5, 0.5));
        let right = tree.estimate(&Rect::from_coords(0.5, 0.5, 1.0, 1.0));
        assert!((left - 3.0).abs() < 1e-9, "left estimate {left}");
        assert!((right - 7.0).abs() < 1e-9, "right estimate {right}");
    }

    #[test]
    fn duplicate_points_do_not_recurse_forever() {
        let mut data = vec![(Point::new(0.5, 0.5), 1.0); 100];
        let tree = fit(&mut data, 4.0);
        assert_eq!(tree.total_weight(), 100.0);
        assert!(
            tree.node_count() < 50,
            "degenerate data must stop splitting"
        );
        let q = Rect::from_coords(0.4, 0.4, 0.6, 0.6);
        assert_eq!(tree.estimate(&q), 100.0);
    }

    #[test]
    fn skewed_duplicates_on_one_axis_still_split() {
        // All x equal; only the y axis can separate the data.
        let mut data: Vec<(Point, f64)> = (0..64)
            .map(|i| (Point::new(0.5, i as f64 / 64.0), 1.0))
            .collect();
        let tree = fit(&mut data, 4.0);
        assert!(tree.leaf_count() > 4);
        let lower = tree.estimate(&Rect::from_coords(0.0, 0.0, 1.0, 0.25));
        assert!((lower - 16.0).abs() <= 2.0, "lower estimate {lower}");
    }

    #[test]
    fn leaf_count_and_size_are_consistent() {
        let mut data = grid_points(16);
        let tree = fit(&mut data, 8.0);
        assert!(tree.leaf_count() > 1);
        assert_eq!(tree.node_count(), 2 * tree.leaf_count() - 1);
        assert!(tree.size_bytes() > tree.node_count());
    }
}
