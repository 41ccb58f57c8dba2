//! Range-query workload generation (the Gowalla check-in stand-in).
//!
//! The paper derives its range queries from Gowalla check-ins in each
//! region. What a workload-aware index reacts to is that queries are
//! skewed *differently* from the data, so query centres are drawn from a
//! separate, more concentrated mixture per region ([`Region`]) and each
//! rectangle is grown to a Table 2 selectivity around its centre.

use crate::dataset::sample_mixture;
use crate::region::Region;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wazi_geom::{Point, Rect};

/// The query selectivities of Table 2, expressed as fractions of the data
/// space (the paper reports them as percentages: 0.0016%–0.1024%).
pub const SELECTIVITIES: [f64; 4] = [0.0016e-2, 0.0064e-2, 0.0256e-2, 0.1024e-2];

/// The extended selectivity range of the ablation study (Figure 13).
pub const ABLATION_SELECTIVITIES: [f64; 3] = [0.0004e-2, 0.0064e-2, 0.1024e-2];

/// Default range-query workload size (Table 2).
pub const WORKLOAD_SIZE: usize = 20_000;

/// Descriptor of a generated workload, kept alongside experiment output so
/// results are reproducible from the recorded configuration alone.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// The region whose check-in profile drives the query centres.
    pub region: Region,
    /// Number of queries.
    pub count: usize,
    /// Selectivity as a fraction of the data-space area.
    pub selectivity: f64,
    /// Seed of the generator.
    pub seed: u64,
}

/// Generates a skewed range-query workload for a region: centres are sampled
/// from the region's check-in mixture and each box covers `selectivity` of
/// the data space (Section 6.2: centres come from check-in locations and the
/// rectangle grows in all four directions until it covers the required
/// portion of the data space).
pub fn generate_queries(region: Region, count: usize, selectivity: f64) -> Vec<Rect> {
    generate_queries_with_seed(region, count, selectivity, region.seed() ^ 0x9E3779B9)
}

/// Like [`generate_queries`] with an explicit seed.
pub fn generate_queries_with_seed(
    region: Region,
    count: usize,
    selectivity: f64,
    seed: u64,
) -> Vec<Rect> {
    assert!(selectivity > 0.0, "selectivity must be positive");
    let clusters = region.query_clusters();
    let total_weight: f64 = clusters.iter().map(|c| c.weight).sum();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let center = sample_mixture(&clusters, total_weight, &mut rng);
            let aspect = rng.gen_range(0.5..2.0);
            Rect::query_box(&Rect::UNIT, center, selectivity, aspect)
        })
        .collect()
}

/// Generates a workload from a [`WorkloadSpec`].
pub fn generate_from_spec(spec: &WorkloadSpec) -> Vec<Rect> {
    generate_queries_with_seed(spec.region, spec.count, spec.selectivity, spec.seed)
}

/// Generates a uniform (workload-agnostic) set of range queries over the
/// data space, used by the workload-change experiment of Figure 12.
pub fn uniform_queries(count: usize, selectivity: f64, seed: u64) -> Vec<Rect> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let center = Point::new(rng.gen::<f64>(), rng.gen::<f64>());
            let aspect = rng.gen_range(0.5..2.0);
            Rect::query_box(&Rect::UNIT, center, selectivity, aspect)
        })
        .collect()
}

/// Replaces a fraction of `original` with queries drawn from `replacement`,
/// modelling the iterative workload changes of Figure 12 ("we replace the
/// dataset's original workload with ... queries" at increasing percentages).
/// The replacement positions are chosen deterministically from `seed`.
pub fn drift_workload(
    original: &[Rect],
    replacement: &[Rect],
    change_fraction: f64,
    seed: u64,
) -> Vec<Rect> {
    assert!(
        (0.0..=1.0).contains(&change_fraction),
        "change fraction must lie in [0, 1]"
    );
    if original.is_empty() || replacement.is_empty() {
        return original.to_vec();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    original
        .iter()
        .map(|q| {
            if rng.gen::<f64>() < change_fraction {
                replacement[rng.gen_range(0..replacement.len())]
            } else {
                *q
            }
        })
        .collect()
}

/// Mean fraction of each query's area that overlaps the densest decile of
/// the data — a crude divergence measure used by tests to confirm that the
/// generated workload is skewed differently from the data distribution.
pub fn mean_center_distance_to(data_hotspot: Point, queries: &[Rect]) -> f64 {
    if queries.is_empty() {
        return 0.0;
    }
    queries
        .iter()
        .map(|q| q.center().distance(&data_hotspot))
        .sum::<f64>()
        / queries.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{generate_dataset, skew_summary};

    #[test]
    fn queries_have_requested_selectivity_and_stay_inside_space() {
        for region in Region::ALL {
            for &selectivity in &SELECTIVITIES {
                let queries = generate_queries(region, 200, selectivity);
                assert_eq!(queries.len(), 200);
                for q in &queries {
                    assert!(Rect::UNIT.contains_rect(q));
                    assert!(
                        (q.area() - selectivity).abs() < 1e-9,
                        "query area {} for requested selectivity {selectivity}",
                        q.area()
                    );
                }
            }
        }
    }

    #[test]
    fn generation_is_deterministic_and_spec_round_trips() {
        let spec = WorkloadSpec {
            region: Region::Japan,
            count: 100,
            selectivity: SELECTIVITIES[1],
            seed: 42,
        };
        let a = generate_from_spec(&spec);
        let b = generate_queries_with_seed(Region::Japan, 100, SELECTIVITIES[1], 42);
        assert_eq!(a, b);
    }

    #[test]
    fn query_centres_are_more_concentrated_than_the_data() {
        for region in Region::ALL {
            let data = generate_dataset(region, 10_000);
            let queries = generate_queries(region, 10_000, SELECTIVITIES[0]);
            let centers: Vec<Point> = queries.iter().map(|q| q.center()).collect();
            let data_skew = skew_summary(&data);
            let query_skew = skew_summary(&centers);
            assert!(
                query_skew.densest_cell_fraction > data_skew.densest_cell_fraction,
                "{region}: query workload should be more concentrated than the data"
            );
        }
    }

    #[test]
    fn uniform_queries_cover_the_space() {
        let queries = uniform_queries(5_000, SELECTIVITIES[2], 1);
        let centers: Vec<Point> = queries.iter().map(|q| q.center()).collect();
        let skew = skew_summary(&centers);
        assert!(
            skew.occupied_cells == 100,
            "occupied {}",
            skew.occupied_cells
        );
        assert!(skew.densest_cell_fraction < 0.03);
    }

    #[test]
    fn drift_mixes_the_requested_fraction() {
        let original = generate_queries(Region::CaliNev, 2_000, SELECTIVITIES[1]);
        let other = uniform_queries(2_000, SELECTIVITIES[1], 2);
        for fraction in [0.0, 0.25, 0.5, 1.0] {
            let drifted = drift_workload(&original, &other, fraction, 3);
            assert_eq!(drifted.len(), original.len());
            let changed = drifted
                .iter()
                .zip(&original)
                .filter(|(d, o)| d != o)
                .count();
            let expected = original.len() as f64 * fraction;
            assert!(
                (changed as f64 - expected).abs() <= original.len() as f64 * 0.05,
                "fraction {fraction}: changed {changed}, expected about {expected}"
            );
        }
    }

    #[test]
    fn drift_handles_empty_inputs() {
        let original = generate_queries(Region::Iberia, 10, SELECTIVITIES[0]);
        assert_eq!(drift_workload(&original, &[], 0.5, 1), original);
        assert!(drift_workload(&[], &original, 0.5, 1).is_empty());
    }

    #[test]
    #[should_panic(expected = "selectivity must be positive")]
    fn zero_selectivity_is_rejected() {
        let _ = generate_queries(Region::Japan, 1, 0.0);
    }
}
