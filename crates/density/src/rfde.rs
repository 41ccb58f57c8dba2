//! Random Forest Density Estimation (RFDE) over two-dimensional points.

use crate::tree::{CountKdTree, ForkStats, Item, TreeParams};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::OnceLock;
use wazi_geom::{Point, Rect};

/// The fit's thread budget: the process-wide `available_parallelism`
/// (one when unknown), read once.
fn fit_workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Configuration of an RFDE forest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RfdeConfig {
    /// Number of randomized trees in the forest.
    pub trees: usize,
    /// Target (weighted) number of points per leaf.
    pub leaf_weight: f64,
    /// Maximum tree depth (a safety bound for adversarial data).
    pub max_depth: usize,
    /// Fraction of the data sampled (without replacement) for each tree.
    /// `1.0` trains every tree on the full dataset.
    pub sample_fraction: f64,
    /// Seed for the deterministic pseudo-random generator.
    pub seed: u64,
}

impl Default for RfdeConfig {
    fn default() -> Self {
        Self {
            trees: 4,
            leaf_weight: 64.0,
            max_depth: 40,
            sample_fraction: 1.0,
            seed: 0x5EED_DA7A,
        }
    }
}

impl RfdeConfig {
    /// A smaller, faster configuration used where estimation accuracy is less
    /// critical (e.g. the weighted estimator inside CUR construction).
    pub fn fast() -> Self {
        Self {
            trees: 2,
            leaf_weight: 256.0,
            sample_fraction: 0.5,
            ..Self::default()
        }
    }
}

/// A Random Forest Density Estimation model: a forest of randomized count
/// k-d trees whose per-region cardinalities are averaged to estimate how many
/// (weighted) points fall inside an arbitrary query rectangle.
///
/// WaZI uses two such models during construction (Section 4.3): one over the
/// data points to estimate the `n_X` terms of the cost function, and the CUR
/// baseline uses a weighted variant where each point is weighted by the
/// number of distinct queries fetching it.
#[derive(Debug, Clone)]
pub struct Rfde {
    trees: Vec<CountKdTree>,
    total_weight: f64,
    scale: f64,
    config: RfdeConfig,
}

impl Rfde {
    /// Fits the forest on unweighted points (every point has weight one),
    /// on every core; the forest is the same whatever the core count.
    pub fn fit(points: &[Point], config: RfdeConfig) -> Self {
        Self::fit_items(points, config)
    }

    /// Fits the forest on weighted points.
    ///
    /// Node weights are sums taken in whatever order fitting leaves a
    /// node's points in, so they are independent of that order — and of how
    /// the fit is implemented — only when every partial sum is exact:
    /// integer-valued weights with a total below 2⁵³. Every caller in this
    /// workspace qualifies (CUR's weights are query counts); fractional
    /// weights may differ in the last bits between implementations.
    pub fn fit_weighted(points: &[(Point, f64)], config: RfdeConfig) -> Self {
        Self::fit_items(points, config)
    }

    /// The one fitting path, monomorphised for bare points and for
    /// `(point, weight)` pairs. Consumes the generator tree after tree: the
    /// sub-sample's `partial_shuffle` (when `sample_fraction < 1`), then the
    /// tree's own draws.
    ///
    /// Trees are fitted one after another, each on every core: a
    /// bare-point tree forks its large nodes onto
    /// `available_parallelism` threads (read once) with a verified
    /// generator offset ([`CountKdTree::fit`]), and the forest equals the
    /// one-thread forest node for node. Weighted trees never fork.
    fn fit_items<T: Item>(items: &[T], config: RfdeConfig) -> Self {
        Self::fit_on(items, config, fit_workers()).0
    }

    /// [`Rfde::fit_items`] on `workers` threads, with what forking did
    /// summed over the trees.
    pub(crate) fn fit_on<T: Item>(
        items: &[T],
        config: RfdeConfig,
        workers: usize,
    ) -> (Self, ForkStats) {
        assert!(config.trees > 0, "RFDE needs at least one tree");
        assert!(
            config.sample_fraction > 0.0 && config.sample_fraction <= 1.0,
            "sample fraction must be in (0, 1]"
        );
        let total_weight: f64 = items.iter().map(Item::weight).sum();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let params = TreeParams {
            leaf_weight: config.leaf_weight,
            max_depth: config.max_depth,
        };

        let sample_len = if config.sample_fraction >= 1.0 {
            items.len()
        } else {
            ((items.len() as f64) * config.sample_fraction).ceil() as usize
        }
        .max(1.min(items.len()));

        // The only copy of the data: every tree reorders this scratch in
        // place (a full-data tree starts from the previous tree's order, a
        // sub-sampled one from a fresh copy of the input).
        let mut trees = Vec::with_capacity(config.trees);
        let mut stats = ForkStats::default();
        let mut scratch: Vec<T> = items.to_vec();
        for _ in 0..config.trees {
            let sample = if sample_len < items.len() {
                scratch.copy_from_slice(items);
                scratch.partial_shuffle(&mut rng, sample_len).0
            } else {
                &mut scratch[..]
            };
            let (tree, tree_stats) = CountKdTree::fit(sample, params, &mut rng, workers);
            trees.push(tree);
            stats += tree_stats;
        }

        // Per-tree estimates cover only the sampled weight; rescale so that a
        // full-space query returns the total weight of the original data.
        let sampled_weight: f64 =
            trees.iter().map(|t| t.total_weight()).sum::<f64>() / trees.len() as f64;
        let scale = if sampled_weight > 0.0 {
            total_weight / sampled_weight
        } else {
            1.0
        };

        let forest = Self {
            trees,
            total_weight,
            scale,
            config,
        };
        (forest, stats)
    }

    /// Estimated (weighted) number of points inside `query`.
    pub fn estimate_count(&self, query: &Rect) -> f64 {
        if self.trees.is_empty() {
            return 0.0;
        }
        let mean: f64 =
            self.trees.iter().map(|t| t.estimate(query)).sum::<f64>() / self.trees.len() as f64;
        mean * self.scale
    }

    /// Estimated fraction of the total weight inside `query` (in `[0, 1]`).
    pub fn estimate_fraction(&self, query: &Rect) -> f64 {
        if self.total_weight <= 0.0 {
            return 0.0;
        }
        (self.estimate_count(query) / self.total_weight).clamp(0.0, 1.0)
    }

    /// Total weight of the fitted data.
    pub fn total_weight(&self) -> f64 {
        self.total_weight
    }

    /// The configuration used to fit this forest.
    pub fn config(&self) -> &RfdeConfig {
        &self.config
    }

    /// Number of trees in the forest.
    pub fn tree_count(&self) -> usize {
        self.trees.len()
    }

    /// Approximate in-memory size in bytes.
    pub fn size_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.trees.iter().map(|t| t.size_bytes()).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn uniform_points(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new(rng.gen::<f64>(), rng.gen::<f64>()))
            .collect()
    }

    #[test]
    fn full_space_estimate_matches_total() {
        let points = uniform_points(5_000, 1);
        let rfde = Rfde::fit(&points, RfdeConfig::default());
        let est = rfde.estimate_count(&Rect::UNIT);
        assert!((est - 5_000.0).abs() < 1.0, "estimate {est}");
        assert!((rfde.estimate_fraction(&Rect::UNIT) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn uniform_data_estimates_track_area() {
        let points = uniform_points(20_000, 2);
        let rfde = Rfde::fit(&points, RfdeConfig::default());
        for (rect, frac) in [
            (Rect::from_coords(0.0, 0.0, 0.5, 0.5), 0.25),
            (Rect::from_coords(0.25, 0.25, 0.75, 0.75), 0.25),
            (Rect::from_coords(0.0, 0.0, 0.1, 1.0), 0.1),
        ] {
            let est = rfde.estimate_fraction(&rect);
            assert!(
                (est - frac).abs() < 0.03,
                "estimate {est} for area fraction {frac}"
            );
        }
    }

    #[test]
    fn clustered_data_is_not_smeared_uniformly() {
        // 90% of the mass in a small corner cluster.
        let mut rng = StdRng::seed_from_u64(3);
        let mut points = Vec::new();
        for _ in 0..9_000 {
            points.push(Point::new(rng.gen::<f64>() * 0.1, rng.gen::<f64>() * 0.1));
        }
        for _ in 0..1_000 {
            points.push(Point::new(rng.gen::<f64>(), rng.gen::<f64>()));
        }
        let rfde = Rfde::fit(&points, RfdeConfig::default());
        let cluster = rfde.estimate_fraction(&Rect::from_coords(0.0, 0.0, 0.1, 0.1));
        assert!(
            cluster > 0.75,
            "cluster fraction {cluster} should be close to 0.9"
        );
        let far = rfde.estimate_fraction(&Rect::from_coords(0.8, 0.8, 1.0, 1.0));
        assert!(far < 0.05, "far fraction {far} should be small");
    }

    #[test]
    fn weighted_estimates_respect_weights() {
        let points = vec![(Point::new(0.2, 0.2), 10.0), (Point::new(0.8, 0.8), 90.0)];
        let rfde = Rfde::fit_weighted(
            &points,
            RfdeConfig {
                trees: 3,
                leaf_weight: 1.0,
                ..Default::default()
            },
        );
        assert_eq!(rfde.total_weight(), 100.0);
        let hot = rfde.estimate_count(&Rect::from_coords(0.7, 0.7, 0.9, 0.9));
        assert!((hot - 90.0).abs() < 1e-6, "hot estimate {hot}");
    }

    #[test]
    fn subsampled_forest_rescales_to_total() {
        let points = uniform_points(10_000, 4);
        let config = RfdeConfig {
            sample_fraction: 0.25,
            trees: 6,
            ..Default::default()
        };
        let rfde = Rfde::fit(&points, config);
        let est = rfde.estimate_count(&Rect::UNIT);
        assert!(
            (est - 10_000.0).abs() / 10_000.0 < 0.01,
            "rescaled estimate {est}"
        );
        let half = rfde.estimate_count(&Rect::from_coords(0.0, 0.0, 1.0, 0.5));
        assert!(
            (half - 5_000.0).abs() / 5_000.0 < 0.1,
            "half estimate {half}"
        );
    }

    /// The forest the sort-based fit grew: a sub-sampled tree takes a fresh
    /// copy of the input, the shuffle and a copy of the sampled prefix; a
    /// full-data tree the scratch as the previous tree left it.
    fn reference_forest(points: &[(Point, f64)], config: RfdeConfig) -> Vec<CountKdTree> {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let params = TreeParams {
            leaf_weight: config.leaf_weight,
            max_depth: config.max_depth,
        };
        let sample_len = ((points.len() as f64) * config.sample_fraction).ceil() as usize;
        let mut scratch = points.to_vec();
        (0..config.trees)
            .map(|_| {
                if sample_len < points.len() {
                    scratch.copy_from_slice(points);
                    scratch.partial_shuffle(&mut rng, sample_len);
                    let mut sample = scratch[..sample_len].to_vec();
                    crate::tree::reference::fit(&mut sample, params, &mut rng)
                } else {
                    crate::tree::reference::fit(&mut scratch, params, &mut rng)
                }
            })
            .collect()
    }

    #[test]
    fn forests_equal_the_reference_forest_tree_for_tree() {
        let points = uniform_points(3_001, 6);
        let mut rng = StdRng::seed_from_u64(7);
        let counted: Vec<(Point, f64)> = points
            .iter()
            .map(|p| (*p, rng.gen_range(0u32..9) as f64))
            .collect();
        let unit: Vec<(Point, f64)> = points.iter().map(|p| (*p, 1.0)).collect();
        for config in [
            RfdeConfig::fast(),
            RfdeConfig {
                sample_fraction: 0.5,
                leaf_weight: 8.0,
                ..Default::default()
            },
            RfdeConfig {
                leaf_weight: 8.0,
                ..Default::default()
            },
        ] {
            for (what, got, want) in [
                (
                    "weighted",
                    Rfde::fit_weighted(&counted, config),
                    reference_forest(&counted, config),
                ),
                (
                    "unweighted",
                    Rfde::fit(&points, config),
                    reference_forest(&unit, config),
                ),
            ] {
                assert_eq!(got.trees.len(), want.len());
                for (i, (g, w)) in got.trees.iter().zip(&want).enumerate() {
                    let what = format!("{what} tree {i}, fraction {}", config.sample_fraction);
                    crate::tree::reference::assert_same_tree(g, w, &what);
                }
            }
        }
    }

    fn assert_same_forest(got: &Rfde, want: &[CountKdTree], what: &str) {
        assert_eq!(got.trees.len(), want.len(), "{what}: tree count");
        for (i, (g, w)) in got.trees.iter().zip(want).enumerate() {
            crate::tree::reference::assert_same_tree(g, w, &format!("{what}, tree {i}"));
        }
    }

    /// Fits `points` on one to four workers and demands the one-worker
    /// forest and the reference forest from every one of them; returns the
    /// fork counts summed over the worker counts.
    fn fit_on_every_worker_count(points: &[Point], config: RfdeConfig, what: &str) -> ForkStats {
        let unit: Vec<(Point, f64)> = points.iter().map(|p| (*p, 1.0)).collect();
        let reference = reference_forest(&unit, config);
        let (one, one_stats) = Rfde::fit_on(points, config, 1);
        assert_eq!(one_stats, ForkStats::default(), "{what}: one worker forked");
        assert_same_forest(&one, &reference, &format!("{what}, 1 worker"));
        let mut total = ForkStats::default();
        for workers in 2..=4 {
            let (got, stats) = Rfde::fit_on(points, config, workers);
            let what = format!("{what}, {workers} workers");
            assert_same_forest(&got, &one.trees, &what);
            assert_same_forest(&got, &reference, &what);
            total += stats;
        }
        total
    }

    /// Above the fork threshold: forking changes no tree, and on distinct
    /// coordinates every predicted generator offset holds.
    #[test]
    fn forked_forests_equal_the_one_worker_forest() {
        let points = uniform_points(20_001, 8);
        for config in [
            RfdeConfig::default(),
            RfdeConfig {
                sample_fraction: 0.5,
                ..Default::default()
            },
        ] {
            let what = format!("uniform, fraction {}", config.sample_fraction);
            let stats = fit_on_every_worker_count(&points, config, &what);
            assert!(stats.forks > 0, "{what}: never forked");
            assert_eq!(stats.misses, 0, "{what}: a prediction missed");
        }
    }

    /// x takes 16 integer values and every point appears twice, so medians
    /// tie, splits leave `n / 2` and predictions miss; the rebuilt right
    /// subtrees still give the one-worker forest.
    #[test]
    fn forked_forests_survive_mispredicted_offsets() {
        let mut rng = StdRng::seed_from_u64(16);
        let points: Vec<Point> = (0..10_001)
            .flat_map(|_| {
                let p = Point::new(rng.gen_range(0u32..16) as f64, rng.gen::<f64>());
                [p, p]
            })
            .collect();
        let stats = fit_on_every_worker_count(&points, RfdeConfig::default(), "ties");
        assert!(stats.misses > 0, "ties: no prediction missed");
    }

    /// Identical points: the root draws its axis, cannot split and stays a
    /// leaf, so there is nothing to fork.
    #[test]
    fn identical_points_fit_the_same_forest_on_every_worker_count() {
        let points = vec![Point::new(0.25, 0.75); 20_001];
        let stats = fit_on_every_worker_count(&points, RfdeConfig::default(), "identical");
        assert_eq!(stats, ForkStats::default());
    }

    #[test]
    fn weighted_forests_never_fork() {
        let mut rng = StdRng::seed_from_u64(9);
        let counted: Vec<(Point, f64)> = uniform_points(20_001, 9)
            .into_iter()
            .map(|p| (p, rng.gen_range(1u32..9) as f64))
            .collect();
        let config = RfdeConfig::default();
        let (got, stats) = Rfde::fit_on(&counted, config, 4);
        assert_eq!(stats, ForkStats::default());
        assert_same_forest(&got, &reference_forest(&counted, config), "weighted");
    }

    #[test]
    fn empty_dataset_estimates_zero() {
        let rfde = Rfde::fit(&[], RfdeConfig::default());
        assert_eq!(rfde.estimate_count(&Rect::UNIT), 0.0);
        assert_eq!(rfde.estimate_fraction(&Rect::UNIT), 0.0);
    }

    #[test]
    fn size_grows_with_tree_count() {
        let points = uniform_points(2_000, 5);
        let small = Rfde::fit(
            &points,
            RfdeConfig {
                trees: 1,
                ..Default::default()
            },
        );
        let large = Rfde::fit(
            &points,
            RfdeConfig {
                trees: 8,
                ..Default::default()
            },
        );
        assert!(large.size_bytes() > small.size_bytes());
        assert_eq!(small.tree_count(), 1);
        assert_eq!(large.tree_count(), 8);
    }
}
