//! Index construction: the base (median / `abcd`) builder and the greedy
//! workload-aware builder of Algorithm 3.

use crate::config::{DensityMode, ZIndexConfig};
use crate::cost::{best_ordering, QuadrantCounts};
use crate::lookahead::build_lookahead;
use crate::node::{InternalNode, Leaf, NodeRef};
use crate::zindex::ZIndex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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
        };

        let len = points.len();
        let mut points = points;
        let root = ctx.build_cell(&mut points, data_space, queries, 0);

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

/// Mutable state threaded through the recursive construction.
struct BuildContext {
    config: ZIndexConfig,
    strategy: BuildStrategy,
    rfde: Option<Rfde>,
    rng: StdRng,
    nodes: Vec<InternalNode>,
    leaves: Vec<Leaf>,
    store: PageStore,
    report: BuildReport,
}

impl BuildContext {
    /// Recursively builds the cell covering `region` holding `points`,
    /// optimised for the (already clipped) `queries`. Children are visited in
    /// curve order so leaves and their pages are laid out consecutively.
    fn build_cell(
        &mut self,
        points: &mut [Point],
        region: Rect,
        queries: &[Rect],
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
            BuildStrategy::Base => (median_split(points), CellOrdering::Abcd),
            BuildStrategy::Adaptive => self.choose_adaptive(points, &bbox, queries),
        };
        match ordering {
            CellOrdering::Abcd => self.report.abcd_cells += 1,
            CellOrdering::Acbd => self.report.acbd_cells += 1,
        }

        // Partition points by quadrant (spatial label order A, B, C, D).
        let mut buckets: [Vec<Point>; 4] = Default::default();
        for p in points.iter() {
            buckets[Quadrant::of(p, &split).label_index()].push(*p);
        }
        if buckets.iter().any(|b| b.len() == points.len()) {
            // Degenerate split: one quadrant swallowed everything (possible
            // when coordinates are heavily duplicated). Recursing would not
            // make progress, so the cell becomes an oversized leaf.
            return self.make_leaf(points, region);
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
        for (position, quadrant) in ordering.curve().into_iter().enumerate() {
            let child_region = quadrant.region(&region, &split);
            let mut child_queries: Vec<Rect> = queries
                .iter()
                .filter_map(|q| q.intersection(&child_region))
                .collect();
            // Queries that degenerate to zero area after clipping carry no
            // information for deeper levels.
            child_queries.retain(|q| q.area() > 0.0);
            let child_points = &mut buckets[quadrant.label_index()];
            children[position] =
                self.build_cell(child_points, child_region, &child_queries, depth + 1);
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
        queries: &[Rect],
    ) -> (Point, CellOrdering) {
        if queries.is_empty() {
            // No workload signal for this cell: fall back to the data-driven
            // median split of the base index.
            return (median_split(points), CellOrdering::Abcd);
        }
        let mut best: Option<(Point, CellOrdering, f64)> = None;
        // The data median is always included as a candidate so WaZI can never
        // do worse than the base split on the cost model.
        let median = median_split(points);
        for k in 0..=self.config.kappa {
            let candidate = if k == 0 {
                median
            } else {
                sample_split(&mut self.rng, bbox)
            };
            let counts = match (&self.rfde, self.config.density) {
                (Some(model), DensityMode::Rfde(_)) if points.len() > EXACT_COUNT_THRESHOLD => {
                    QuadrantCounts::estimated(model, bbox, &candidate)
                }
                _ => QuadrantCounts::exact(points, &candidate),
            };
            let (ordering, cost) = best_ordering(queries, &candidate, &counts, self.config.alpha);
            self.report.candidates_evaluated += 1;
            if best.is_none_or(|(_, _, c)| cost < c) {
                best = Some((candidate, ordering, cost));
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
pub(crate) fn median_split(points: &[Point]) -> Point {
    debug_assert!(!points.is_empty());
    let mut xs: Vec<f64> = points.iter().map(|p| p.x).collect();
    let mut ys: Vec<f64> = points.iter().map(|p| p.y).collect();
    let mid = points.len() / 2;
    let (_, mx, _) = xs.select_nth_unstable_by(mid, f64::total_cmp);
    let (_, my, _) = ys.select_nth_unstable_by(mid, f64::total_cmp);
    Point::new(*mx, *my)
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
        let m = median_split(&points);
        assert_eq!(m, Point::new(0.5, 0.5));
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
