//! Index construction: the base (median / `abcd`) builder and the greedy
//! workload-aware builder of Algorithm 3.

use crate::config::{DensityMode, ZIndexConfig};
use crate::cost::{best_ordering, quadrant_sizes, QuadrantCounts};
use crate::lookahead::build_lookahead;
use crate::node::{InternalNode, Leaf, NodeRef};
use crate::zindex::ZIndex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;
use std::time::Instant;
use wazi_density::Rfde;
use wazi_geom::{CellOrdering, Point, Quadrant, Rect};
use wazi_storage::PageStore;

/// Which construction algorithm a [`ZIndexBuilder`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuildStrategy {
    /// Median splits and fixed `abcd` ordering (the base Z-index of
    /// Section 3).
    Base,
    /// Greedy cost-minimising splits and orderings (WaZI, Algorithm 3).
    Adaptive,
}

/// Summary of one index construction, reported in Table 3 and used by the
/// cost-redemption analysis (Table 4).
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildReport {
    /// Wall-clock construction time in nanoseconds.
    pub build_ns: u64,
    /// Time spent fitting density-estimation models, included in `build_ns`.
    pub density_fit_ns: u64,
    /// Number of candidate splits evaluated by the greedy optimiser.
    pub candidates_evaluated: u64,
    /// Number of cells for which the `acbd` ordering was selected.
    pub acbd_cells: u64,
    /// Number of cells for which the `abcd` ordering was selected.
    pub abcd_cells: u64,
}

/// Builder producing [`ZIndex`] instances (both the base variant and WaZI).
#[derive(Debug, Clone)]
pub struct ZIndexBuilder {
    config: ZIndexConfig,
    strategy: BuildStrategy,
}

impl ZIndexBuilder {
    /// Creates a builder with the given configuration and strategy.
    pub fn new(config: ZIndexConfig, strategy: BuildStrategy) -> Self {
        Self { config, strategy }
    }

    /// Builder for the paper's WaZI index.
    pub fn wazi() -> Self {
        Self::new(ZIndexConfig::wazi(), BuildStrategy::Adaptive)
    }

    /// Builder for the base Z-index.
    pub fn base() -> Self {
        Self::new(ZIndexConfig::base(), BuildStrategy::Base)
    }

    /// Overrides the configuration.
    pub fn with_config(mut self, config: ZIndexConfig) -> Self {
        self.config = config;
        self
    }

    /// Builds the index over `points`, optimising for the workload `queries`
    /// when the strategy is adaptive. The base strategy ignores the workload.
    pub fn build(&self, points: Vec<Point>, queries: &[Rect]) -> ZIndex {
        self.config
            .validate()
            .expect("invalid Z-index configuration");
        let start = Instant::now();
        let mut report = BuildReport::default();

        let data_space = if points.is_empty() {
            Rect::UNIT
        } else {
            Rect::bounding(&points)
        };

        let rfde = match (self.strategy, self.config.density) {
            (BuildStrategy::Adaptive, DensityMode::Rfde(cfg)) if !points.is_empty() => {
                let fit_start = Instant::now();
                let model = Rfde::fit(&points, cfg);
                report.density_fit_ns = fit_start.elapsed().as_nanos() as u64;
                Some(model)
            }
            _ => None,
        };

        let mut ctx = BuildContext {
            config: self.config,
            strategy: self.strategy,
            rfde,
            rng: StdRng::seed_from_u64(self.config.seed),
            nodes: Vec::new(),
            leaves: Vec::new(),
            store: PageStore::new(self.config.leaf_capacity),
            report,
            // The root's workload is the bottom of the stack.
            queries: queries.to_vec(),
            candidates: Vec::with_capacity(self.config.kappa + 1),
            coords: Vec::new(),
        };

        // The two point buffers of the whole build: every cell scatters its
        // points from one into the same positions of the other.
        let len = points.len();
        let mut points = points;
        let mut scattered = vec![Point::ORIGIN; len];
        let root = ctx.build_cell(&mut points, &mut scattered, data_space, 0..queries.len(), 0);

        if self.config.skipping {
            build_lookahead(&mut ctx.leaves);
        }

        ctx.report.build_ns = start.elapsed().as_nanos() as u64;
        let variant = match (self.strategy, self.config.skipping) {
            (BuildStrategy::Adaptive, true) => "WaZI",
            (BuildStrategy::Adaptive, false) => "WaZI-SK",
            (BuildStrategy::Base, true) => "Base+SK",
            (BuildStrategy::Base, false) => "Base",
        };

        ZIndex::from_parts(
            variant,
            self.config,
            ctx.nodes,
            ctx.leaves,
            root,
            ctx.store,
            len,
            data_space,
            ctx.report,
        )
    }
}

/// Cells holding at most this many points evaluate quadrant cardinalities
/// exactly instead of through the RFDE model. Near the leaves the RFDE's
/// resolution (its leaf weight) is coarser than the cells being optimised, so
/// exact counting — which is cheap at this size — avoids noisy split choices;
/// the learned estimator is what makes the *upper* levels affordable.
const EXACT_COUNT_THRESHOLD: usize = 4_096;

/// Mutable state threaded through the recursive construction. Beyond the
/// arenas it fills, it owns every buffer the recursion reuses, so a cell
/// allocates nothing but its node or its leaf's page.
struct BuildContext {
    config: ZIndexConfig,
    strategy: BuildStrategy,
    rfde: Option<Rfde>,
    rng: StdRng,
    nodes: Vec<InternalNode>,
    leaves: Vec<Leaf>,
    store: PageStore,
    report: BuildReport,
    /// Clipped workloads of the cells on the path from the root to the cell
    /// being built, used as a stack: a cell's queries are a range of it, a
    /// child's are pushed on top and popped when the child returns.
    queries: Vec<Rect>,
    /// The candidate splits of the cell being optimised.
    candidates: Vec<Point>,
    /// Coordinate scratch of [`median_split`].
    coords: Vec<f64>,
}

impl BuildContext {
    /// Recursively builds the cell covering `region` whose points are in
    /// `points`, optimised for the (already clipped) workload
    /// `self.queries[queries]`. Children are visited in curve order so
    /// leaves and their pages are laid out consecutively.
    ///
    /// `scatter` is the cell's slice of the other point buffer. A cell that
    /// splits moves its points there, stably, grouped by quadrant in curve
    /// order; each child then reads its group and scatters back into the
    /// matching stretch of `points`. The two buffers swap roles level by
    /// level and children own disjoint sub-slices of both.
    fn build_cell(
        &mut self,
        points: &mut [Point],
        scatter: &mut [Point],
        region: Rect,
        queries: Range<usize>,
        depth: usize,
    ) -> NodeRef {
        if points.len() < self.config.leaf_capacity.max(1)
            || depth >= self.config.max_depth
            || points.is_empty()
        {
            return self.make_leaf(points, region);
        }
        let bbox = Rect::bounding(points);
        if bbox.width() == 0.0 && bbox.height() == 0.0 {
            // Every point is identical: no split can separate them.
            return self.make_leaf(points, region);
        }

        let (split, ordering) = match self.strategy {
            BuildStrategy::Base => (median_split(points, &mut self.coords), CellOrdering::Abcd),
            BuildStrategy::Adaptive => self.choose_adaptive(points, &bbox, queries.clone()),
        };

        match ordering {
            CellOrdering::Abcd => self.report.abcd_cells += 1,
            CellOrdering::Acbd => self.report.acbd_cells += 1,
        }

        // Group sizes by spatial label (A, B, C, D).
        let sizes = quadrant_sizes(points, &split);
        if sizes.contains(&points.len()) {
            // Degenerate split: one quadrant swallowed everything (possible
            // when coordinates are heavily duplicated). Recursing would not
            // make progress, so the cell becomes an oversized leaf.
            return self.make_leaf(points, region);
        }

        // Stable scatter into curve order. Stability matters: a leaf's
        // point order is the order range results and page blocks come in.
        let curve = ordering.curve();
        let mut next = [0usize; 4];
        let mut start = 0;
        for quadrant in curve {
            next[quadrant.label_index()] = start;
            start += sizes[quadrant.label_index()];
        }
        for p in points.iter() {
            let label = Quadrant::of(p, &split).label_index();
            scatter[next[label]] = *p;
            next[label] += 1;
        }

        let node_index = self.nodes.len() as u32;
        self.nodes.push(InternalNode {
            region,
            split,
            ordering,
            children: [NodeRef::Leaf(0); 4],
            count: points.len(),
        });

        let mut children = [NodeRef::Leaf(0); 4];
        let (mut grouped, mut spare) = (scatter, points);
        for (position, quadrant) in curve.into_iter().enumerate() {
            let child_region = quadrant.region(&region, &split);
            let size = sizes[quadrant.label_index()];
            let (child_points, rest) = std::mem::take(&mut grouped).split_at_mut(size);
            grouped = rest;
            let (child_scatter, rest) = std::mem::take(&mut spare).split_at_mut(size);
            spare = rest;

            let child_queries = self.queries.len();
            for i in queries.clone() {
                // Queries that degenerate to zero area after clipping carry
                // no information for deeper levels.
                if let Some(clipped) = self.queries[i].intersection(&child_region) {
                    if clipped.area() > 0.0 {
                        self.queries.push(clipped);
                    }
                }
            }
            children[position] = self.build_cell(
                child_points,
                child_scatter,
                child_region,
                child_queries..self.queries.len(),
                depth + 1,
            );
            self.queries.truncate(child_queries);
        }
        self.nodes[node_index as usize].children = children;
        NodeRef::Internal(node_index)
    }

    /// Line 2–3 of Algorithm 3: sample `κ` candidate split points uniformly
    /// from the cell and pick the split and ordering minimising the
    /// retrieval cost (Eq. 5).
    fn choose_adaptive(
        &mut self,
        points: &[Point],
        bbox: &Rect,
        queries: Range<usize>,
    ) -> (Point, CellOrdering) {
        let median = median_split(points, &mut self.coords);
        if queries.is_empty() {
            // No workload signal for this cell: fall back to the data-driven
            // median split of the base index.
            return (median, CellOrdering::Abcd);
        }
        // The data median is always included as a candidate so WaZI can never
        // do worse than the base split on the cost model. The generator is
        // consumed here and nowhere else in the build: two draws per sampled
        // candidate, candidates in order, cells in curve-order DFS.
        self.candidates.clear();
        self.candidates.push(median);
        for _ in 0..self.config.kappa {
            self.candidates.push(sample_split(&mut self.rng, bbox));
        }
        let model = match (&self.rfde, self.config.density) {
            (Some(model), DensityMode::Rfde(_)) if points.len() > EXACT_COUNT_THRESHOLD => {
                Some(model)
            }
            _ => None,
        };
        let queries = &self.queries[queries];
        let mut best: Option<(Point, CellOrdering, f64)> = None;
        for candidate in &self.candidates {
            let counts = match model {
                Some(model) => QuadrantCounts::estimated(model, bbox, candidate),
                None => QuadrantCounts::exact(points, candidate),
            };
            let (ordering, cost) = best_ordering(queries, candidate, &counts, self.config.alpha);
            self.report.candidates_evaluated += 1;
            if best.is_none_or(|(_, _, c)| cost < c) {
                best = Some((*candidate, ordering, cost));
            }
        }
        let (split, ordering, _) = best.expect("at least one candidate evaluated");
        (split, ordering)
    }

    /// Creates a leaf node and its clustered page.
    fn make_leaf(&mut self, points: &[Point], region: Rect) -> NodeRef {
        let bbox = Rect::bounding(points);
        let page = self.store.allocate_slice(points);
        let leaf_index = self.leaves.len() as u32;
        self.leaves
            .push(Leaf::new(region, bbox, page, points.len()));
        NodeRef::Leaf(leaf_index)
    }
}

/// The median split point of the base Z-index: the medians of the `x` and
/// `y` coordinates of the cell's points.
///
/// `coords` is scratch for one axis at a time; its contents on entry are
/// irrelevant, so callers keep one buffer across calls.
pub(crate) fn median_split(points: &[Point], coords: &mut Vec<f64>) -> Point {
    debug_assert!(!points.is_empty());
    let mut median_of = |coord: fn(&Point) -> f64| {
        coords.clear();
        coords.extend(points.iter().map(coord));
        *coords
            .select_nth_unstable_by(points.len() / 2, f64::total_cmp)
            .1
    };
    Point::new(median_of(|p| p.x), median_of(|p| p.y))
}

/// Samples a candidate split point uniformly from the interior of the cell's
/// point bounding box. Sampling inside the bounding box (rather than the full
/// cell region) guarantees the candidate actually separates data whenever the
/// cell holds non-identical points.
fn sample_split(rng: &mut StdRng, bbox: &Rect) -> Point {
    let x = if bbox.width() > 0.0 {
        rng.gen_range(bbox.lo.x..bbox.hi.x)
    } else {
        bbox.lo.x
    };
    let y = if bbox.height() > 0.0 {
        rng.gen_range(bbox.lo.y..bbox.hi.y)
    } else {
        bbox.lo.y
    };
    Point::new(x, y)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_split_matches_sorted_median() {
        let points = vec![
            Point::new(0.9, 0.1),
            Point::new(0.1, 0.9),
            Point::new(0.5, 0.5),
            Point::new(0.3, 0.7),
            Point::new(0.7, 0.3),
        ];
        let m = median_split(&points, &mut Vec::new());
        assert_eq!(m, Point::new(0.5, 0.5));

        // One scratch buffer across consecutive calls of different lengths:
        // whatever an earlier, longer call left in it must not leak into a
        // later, shorter one (nor the reverse).
        let mut rng = StdRng::seed_from_u64(2);
        let mut coords = Vec::new();
        for len in [1usize, 400, 3, 64, 65, 2, 1_000, 7] {
            // Few distinct values, so medians sit inside runs of duplicates.
            let points: Vec<Point> = (0..len)
                .map(|_| {
                    Point::new(
                        f64::from(rng.gen_range(0u32..16)),
                        f64::from(rng.gen_range(0u32..1_000)),
                    )
                })
                .collect();
            let sorted_median = |coord: fn(&Point) -> f64| {
                let mut sorted: Vec<f64> = points.iter().map(coord).collect();
                sorted.sort_by(f64::total_cmp);
                sorted[len / 2]
            };
            assert_eq!(
                median_split(&points, &mut coords),
                Point::new(sorted_median(|p| p.x), sorted_median(|p| p.y)),
                "len {len}"
            );
        }
    }

    #[test]
    fn sample_split_stays_inside_bbox() {
        let mut rng = StdRng::seed_from_u64(1);
        let bbox = Rect::from_coords(0.2, 0.4, 0.6, 0.9);
        for _ in 0..100 {
            let s = sample_split(&mut rng, &bbox);
            assert!(bbox.contains(&s));
        }
        // Degenerate bounding boxes collapse to their low corner on the flat
        // axis instead of panicking.
        let flat = Rect::from_coords(0.5, 0.1, 0.5, 0.9);
        let s = sample_split(&mut rng, &flat);
        assert_eq!(s.x, 0.5);
        assert!((0.1..0.9).contains(&s.y));
    }
}
