//! Synthetic dataset generation (the OSM-POI stand-in).
//!
//! The paper indexes OpenStreetMap points of interest, which do not ship
//! with this repository. What the indexes react to is the data's spatial
//! skew, so each region's points are drawn from a seeded mixture of
//! Gaussian clusters over a uniform background ([`Region`]): the same
//! seed always yields the same dataset.

use crate::region::{Cluster, Region};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wazi_geom::Point;

/// Draws one sample from a mixture of axis-aligned Gaussian clusters,
/// clamped to the unit square.
pub(crate) fn sample_mixture(clusters: &[Cluster], total_weight: f64, rng: &mut StdRng) -> Point {
    let mut pick = rng.gen::<f64>() * total_weight;
    let mut chosen = &clusters[clusters.len() - 1];
    for cluster in clusters {
        if pick <= cluster.weight {
            chosen = cluster;
            break;
        }
        pick -= cluster.weight;
    }
    let x = chosen.center.0 + gaussian(rng) * chosen.spread_x;
    let y = chosen.center.1 + gaussian(rng) * chosen.spread_y;
    Point::new(x.clamp(0.0, 1.0), y.clamp(0.0, 1.0))
}

/// Standard normal sample via the Box–Muller transform (keeps the dependency
/// surface at plain `rand`).
pub(crate) fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Generates `n` data points for a region with the region's default seed.
pub fn generate_dataset(region: Region, n: usize) -> Vec<Point> {
    generate_dataset_with_seed(region, n, region.seed())
}

/// Generates `n` data points for a region with an explicit seed, mixing the
/// region's cluster profile with a uniform background.
pub fn generate_dataset_with_seed(region: Region, n: usize, seed: u64) -> Vec<Point> {
    let clusters = region.data_clusters();
    let total_weight: f64 = clusters.iter().map(|c| c.weight).sum();
    let background = region.background_fraction();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            if rng.gen::<f64>() < background {
                Point::new(rng.gen::<f64>(), rng.gen::<f64>())
            } else {
                sample_mixture(&clusters, total_weight, &mut rng)
            }
        })
        .collect()
}

/// Generates `n` uniformly distributed points over the unit square (used by
/// the insert experiment of Figure 11, which samples insertions uniformly
/// from the data space).
pub fn uniform_dataset(n: usize, seed: u64) -> Vec<Point> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Point::new(rng.gen::<f64>(), rng.gen::<f64>()))
        .collect()
}

/// Samples `n` point queries from an existing dataset (Section 6.4 samples
/// point queries from the data distribution).
pub fn sample_point_queries(data: &[Point], n: usize, seed: u64) -> Vec<Point> {
    if data.is_empty() {
        return Vec::new();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| data[rng.gen_range(0..data.len())]).collect()
}

/// Summary statistics of a generated dataset, used by tests and by the
/// harness to report the skew of each region profile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SkewSummary {
    /// Fraction of points inside the densest decile cell of a 10x10 grid.
    pub densest_cell_fraction: f64,
    /// Number of non-empty cells of the 10x10 grid.
    pub occupied_cells: usize,
}

/// Computes the skew summary of a point set over the unit square.
pub fn skew_summary(points: &[Point]) -> SkewSummary {
    let mut cells = [0usize; 100];
    for p in points {
        let gx = ((p.x * 10.0) as usize).min(9);
        let gy = ((p.y * 10.0) as usize).min(9);
        cells[gy * 10 + gx] += 1;
    }
    let max = cells.iter().copied().max().unwrap_or(0);
    SkewSummary {
        densest_cell_fraction: if points.is_empty() {
            0.0
        } else {
            max as f64 / points.len() as f64
        },
        occupied_cells: cells.iter().filter(|&&c| c > 0).count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wazi_geom::Rect;

    #[test]
    fn datasets_are_deterministic_and_inside_the_unit_square() {
        for region in Region::ALL {
            let a = generate_dataset(region, 5_000);
            let b = generate_dataset(region, 5_000);
            assert_eq!(a, b, "generation must be deterministic for {region}");
            assert!(a.iter().all(|p| Rect::UNIT.contains(p)));
            assert_eq!(a.len(), 5_000);
        }
    }

    #[test]
    fn different_regions_produce_different_distributions() {
        let cali = generate_dataset(Region::CaliNev, 10_000);
        let ny = generate_dataset(Region::NewYork, 10_000);
        let cali_skew = skew_summary(&cali);
        let ny_skew = skew_summary(&ny);
        // New York is far more concentrated than the Californian corridor.
        assert!(ny_skew.densest_cell_fraction > cali_skew.densest_cell_fraction);
        assert!(cali_skew.occupied_cells >= ny_skew.occupied_cells);
    }

    #[test]
    fn regional_data_is_skewed_compared_to_uniform() {
        let uniform = uniform_dataset(10_000, 1);
        let uniform_skew = skew_summary(&uniform);
        for region in Region::ALL {
            let data = generate_dataset(region, 10_000);
            let skew = skew_summary(&data);
            assert!(
                skew.densest_cell_fraction > uniform_skew.densest_cell_fraction * 2.0,
                "{region} should be clearly skewed"
            );
        }
    }

    #[test]
    fn explicit_seed_changes_the_sample_but_not_the_distribution() {
        let a = generate_dataset_with_seed(Region::Japan, 5_000, 1);
        let b = generate_dataset_with_seed(Region::Japan, 5_000, 2);
        assert_ne!(a, b);
        let (sa, sb) = (skew_summary(&a), skew_summary(&b));
        assert!((sa.densest_cell_fraction - sb.densest_cell_fraction).abs() < 0.05);
    }

    #[test]
    fn point_query_sampling_draws_from_the_data() {
        let data = generate_dataset(Region::Iberia, 2_000);
        let samples = sample_point_queries(&data, 500, 7);
        assert_eq!(samples.len(), 500);
        assert!(samples.iter().all(|s| data.contains(s)));
        assert!(sample_point_queries(&[], 10, 7).is_empty());
    }

    #[test]
    fn gaussian_has_zero_mean_and_unit_variance_roughly() {
        let mut rng = StdRng::seed_from_u64(3);
        let samples: Vec<f64> = (0..20_000).map(|_| gaussian(&mut rng)).collect();
        let mean: f64 = samples.iter().sum::<f64>() / samples.len() as f64;
        let var: f64 =
            samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / samples.len() as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "variance {var}");
    }
}
