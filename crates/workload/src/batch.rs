//! Mixed query-batch generation for the query engine.
//!
//! The paper evaluates indexes under *workloads* — mixes of range, point and
//! kNN queries — and the engine's [`wazi_core::QueryEngine::execute_batch`]
//! consumes exactly such mixes as `Vec<Query>`. This module generates them
//! deterministically: range-query rectangles follow the region's skewed
//! check-in profile (like [`crate::generate_queries`]), point probes and kNN
//! centres follow the region's *data* profile, and the kind of every batch
//! slot is drawn from a configurable [`BatchMix`].

use crate::dataset::sample_mixture;
use crate::region::Region;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wazi_core::{Query, RangeMode};
use wazi_geom::Rect;

/// Relative weights of the query kinds within a generated batch.
///
/// The weights need not sum to one; they are normalised internally. Range
/// queries are split evenly across the three [`RangeMode`]s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchMix {
    /// Weight of range queries (all three execution modes).
    pub range: f64,
    /// Weight of exact-match point probes.
    pub point: f64,
    /// Weight of kNN queries.
    pub knn: f64,
    /// `k` used by generated kNN queries.
    pub knn_k: usize,
}

impl Default for BatchMix {
    /// The evaluation default: range-heavy with occasional probes and kNN,
    /// matching the paper's emphasis on range queries (Section 6).
    fn default() -> Self {
        Self {
            range: 0.7,
            point: 0.2,
            knn: 0.1,
            knn_k: 8,
        }
    }
}

/// Generates a deterministic mixed batch of `count` typed query plans for a
/// region at the given range-query selectivity.
///
/// Equal seeds produce equal batches; the batch is independent of the batch
/// generated for any other `(region, seed)` pair. Range rectangles are
/// sampled exactly like [`crate::generate_queries_with_seed`] samples them
/// (skewed check-in centres, selectivity as a fraction of the data space),
/// so batches overlap the same hot pages the paper's range workloads hit.
pub fn generate_mixed_batch(
    region: Region,
    count: usize,
    selectivity: f64,
    seed: u64,
) -> Vec<Query> {
    generate_mixed_batch_with_mix(region, count, selectivity, seed, BatchMix::default())
}

/// Like [`generate_mixed_batch`] with an explicit [`BatchMix`].
pub fn generate_mixed_batch_with_mix(
    region: Region,
    count: usize,
    selectivity: f64,
    seed: u64,
    mix: BatchMix,
) -> Vec<Query> {
    assert!(selectivity > 0.0, "selectivity must be positive");
    let total_mix = mix.range + mix.point + mix.knn;
    assert!(
        total_mix > 0.0 && mix.range >= 0.0 && mix.point >= 0.0 && mix.knn >= 0.0,
        "mix weights must be non-negative and not all zero"
    );
    let query_clusters = region.query_clusters();
    let query_weight: f64 = query_clusters.iter().map(|c| c.weight).sum();
    let data_clusters = region.data_clusters();
    let data_weight: f64 = data_clusters.iter().map(|c| c.weight).sum();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let pick = rng.gen::<f64>() * total_mix;
            if pick < mix.range {
                let center = sample_mixture(&query_clusters, query_weight, &mut rng);
                let aspect = rng.gen_range(0.5..2.0);
                let rect = Rect::query_box(&Rect::UNIT, center, selectivity, aspect);
                let mode = match rng.gen_range(0..3u32) {
                    0 => RangeMode::Collect,
                    1 => RangeMode::Count,
                    _ => RangeMode::Stream,
                };
                Query::Range { rect, mode }
            } else if pick < mix.range + mix.point {
                Query::point(sample_mixture(&data_clusters, data_weight, &mut rng))
            } else {
                Query::knn(
                    sample_mixture(&data_clusters, data_weight, &mut rng),
                    mix.knn_k,
                )
            }
        })
        .collect()
}

/// Fraction the query-cluster spreads are shrunk by when generating an
/// overlapping batch: centres concentrate four times harder around the
/// region's hotspots than a regular workload, so thousands of queries stack
/// on the same pages.
const OVERLAP_CONCENTRATION: f64 = 0.25;

/// Generates a deterministic batch of heavily *overlapping* counting range
/// queries: the workload shape fused and parallel batch execution exist
/// for.
///
/// Centres follow the region's check-in profile like
/// [`crate::generate_queries`], but with every cluster's spread shrunk
/// four-fold, so a large batch revisits the same hot pages
/// thousands of times — giving a fused sweep pages to share and a sharded
/// sweep enough stacked work per leaf interval to keep every worker busy.
/// All plans use the counting mode (the non-materializing measurement
/// path). Equal seeds produce equal batches.
pub fn generate_overlapping_batch(
    region: Region,
    count: usize,
    selectivity: f64,
    seed: u64,
) -> Vec<Query> {
    assert!(selectivity > 0.0, "selectivity must be positive");
    let mut clusters = region.query_clusters();
    for cluster in &mut clusters {
        cluster.spread_x *= OVERLAP_CONCENTRATION;
        cluster.spread_y *= OVERLAP_CONCENTRATION;
    }
    let total_weight: f64 = clusters.iter().map(|c| c.weight).sum();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let center = sample_mixture(&clusters, total_weight, &mut rng);
            let aspect = rng.gen_range(0.5..2.0);
            Query::range_count(Rect::query_box(&Rect::UNIT, center, selectivity, aspect))
        })
        .collect()
}

/// Generates a deterministic batch of *scattered*, barely-overlapping
/// counting range queries: the adversarial workload for fusion, and the
/// case the cost model must route sequentially.
///
/// Centres are stratified over a jittered `⌈√count⌉ × ⌈√count⌉` grid across
/// the whole unit space — ignoring the region's hotspots on purpose — so
/// almost no two queries share a leaf page. A fused sweep over such a batch
/// pays its setup for nothing; a cost-based scheduler must recognise the
/// shape (page visits ≈ distinct pages) and fall back to the
/// per-query loop. All plans use the counting mode. Equal seeds produce
/// equal batches; `region` only seasons the jitter so different regions
/// yield different batches.
pub fn generate_scattered_batch(
    region: Region,
    count: usize,
    selectivity: f64,
    seed: u64,
) -> Vec<Query> {
    assert!(selectivity > 0.0, "selectivity must be positive");
    let mut rng = StdRng::seed_from_u64(seed ^ (region as u64).wrapping_mul(0x9e37_79b9));
    let side = (count as f64).sqrt().ceil().max(1.0) as usize;
    let cell = 1.0 / side as f64;
    (0..count)
        .map(|i| {
            let (col, row) = (i % side, i / side % side);
            let center = wazi_geom::Point::new(
                (col as f64 + rng.gen::<f64>()) * cell,
                (row as f64 + rng.gen::<f64>()) * cell,
            );
            let aspect = rng.gen_range(0.5..2.0);
            Query::range_count(Rect::query_box(&Rect::UNIT, center, selectivity, aspect))
        })
        .collect()
}

/// Fraction of probes in a point-heavy batch that repeat an earlier probe
/// (hot-key skew): the share of a real lookup workload that hammers the
/// same keys, and the share the fused point kernel collapses onto already
/// fetched pages.
const POINT_BATCH_DUPLICATES: f64 = 0.25;

/// Generates a deterministic all-point-probe batch following the region's
/// *data* profile — the workload shape the fused point-batch kernel exists
/// for.
///
/// A quarter of the probes repeat an earlier probe of the same batch
/// (hot-key skew), so probes sharing an owning page are guaranteed and
/// leaf-grouped execution has page visits to save; a small tail probes
/// points outside the unit data space, exercising the miss path. Equal
/// seeds produce equal batches.
pub fn generate_point_batch(region: Region, count: usize, seed: u64) -> Vec<Query> {
    let data_clusters = region.data_clusters();
    let data_weight: f64 = data_clusters.iter().map(|c| c.weight).sum();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut probes: Vec<wazi_geom::Point> = Vec::with_capacity(count);
    (0..count)
        .map(|_| {
            let pick = rng.gen::<f64>();
            let p = if !probes.is_empty() && pick < POINT_BATCH_DUPLICATES {
                probes[rng.gen_range(0..probes.len())]
            } else if pick > 0.98 {
                // Out-of-space probe: always a miss, never a crash.
                wazi_geom::Point::new(1.5 + rng.gen::<f64>(), -0.5 * rng.gen::<f64>())
            } else {
                sample_mixture(&data_clusters, data_weight, &mut rng)
            };
            probes.push(p);
            Query::point(p)
        })
        .collect()
}

/// Generates a deterministic all-kNN batch whose centres concentrate on the
/// region's data hotspots (spreads shrunk like
/// [`generate_overlapping_batch`]'s), so seed boxes overlap and the
/// engine's grouped expanding-ring sweep has candidate pages to share.
/// Equal seeds produce equal batches.
pub fn generate_knn_batch(region: Region, count: usize, k: usize, seed: u64) -> Vec<Query> {
    let mut clusters = region.data_clusters();
    for cluster in &mut clusters {
        cluster.spread_x *= OVERLAP_CONCENTRATION;
        cluster.spread_y *= OVERLAP_CONCENTRATION;
    }
    let total_weight: f64 = clusters.iter().map(|c| c.weight).sum();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| Query::knn(sample_mixture(&clusters, total_weight, &mut rng), k))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate_queries;
    use wazi_core::Query;

    #[test]
    fn batches_are_deterministic_per_seed() {
        let a = generate_mixed_batch(Region::NewYork, 200, 0.001, 42);
        let b = generate_mixed_batch(Region::NewYork, 200, 0.001, 42);
        assert_eq!(a, b);
        let c = generate_mixed_batch(Region::NewYork, 200, 0.001, 43);
        assert_ne!(a, c, "different seeds must change the batch");
    }

    #[test]
    fn default_mix_contains_every_kind_and_every_range_mode() {
        let batch = generate_mixed_batch(Region::Japan, 500, 0.001, 7);
        assert_eq!(batch.len(), 500);
        let ranges = batch.iter().filter(|q| q.is_range()).count();
        let points = batch
            .iter()
            .filter(|q| matches!(q, Query::Point(_)))
            .count();
        let knns = batch
            .iter()
            .filter(|q| matches!(q, Query::Knn { .. }))
            .count();
        assert_eq!(ranges + points + knns, 500);
        // The 70/20/10 default mix at 500 draws: each kind must appear.
        assert!(ranges > 250 && points > 30 && knns > 10);
        for mode in [RangeMode::Collect, RangeMode::Count, RangeMode::Stream] {
            assert!(
                batch
                    .iter()
                    .any(|q| matches!(q, Query::Range { mode: m, .. } if *m == mode)),
                "missing range mode {mode:?}"
            );
        }
        // Every generated plan must pass engine validation.
        for query in &batch {
            query.validate().expect("generated plans are valid");
        }
    }

    #[test]
    fn range_rectangles_have_the_requested_selectivity() {
        let batch = generate_mixed_batch(Region::Iberia, 300, 0.0005, 11);
        for query in &batch {
            if let Query::Range { rect, .. } = query {
                assert!(Rect::UNIT.contains_rect(rect));
                assert!((rect.area() - 0.0005).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn custom_mix_weights_are_respected() {
        let only_points = BatchMix {
            range: 0.0,
            point: 1.0,
            knn: 0.0,
            knn_k: 3,
        };
        let batch = generate_mixed_batch_with_mix(Region::CaliNev, 100, 0.001, 5, only_points);
        assert!(batch.iter().all(|q| matches!(q, Query::Point(_))));

        let knn_heavy = BatchMix {
            range: 0.0,
            point: 0.0,
            knn: 1.0,
            knn_k: 5,
        };
        let batch = generate_mixed_batch_with_mix(Region::CaliNev, 50, 0.001, 5, knn_heavy);
        assert!(batch.iter().all(|q| matches!(q, Query::Knn { k: 5, .. })));
    }

    #[test]
    fn overlapping_batches_are_deterministic_and_concentrated() {
        let batch = generate_overlapping_batch(Region::NewYork, 400, 0.001, 9);
        assert_eq!(batch.len(), 400);
        assert_eq!(
            batch,
            generate_overlapping_batch(Region::NewYork, 400, 0.001, 9)
        );
        let rects: Vec<Rect> = batch
            .iter()
            .map(|q| match q {
                Query::Range { rect, mode } => {
                    assert_eq!(*mode, RangeMode::Count, "overlap batches count");
                    *rect
                }
                other => panic!("unexpected plan {other:?}"),
            })
            .collect();
        for rect in &rects {
            assert!(Rect::UNIT.contains_rect(rect));
            assert!((rect.area() - 0.001).abs() < 1e-9);
        }
        // Concentration: queries must overlap far more than a regular
        // workload of the same size and selectivity would. Count
        // overlapping pairs on a sample.
        let regular: Vec<Rect> = generate_queries(Region::NewYork, 400, 0.001);
        let overlap_pairs = |rects: &[Rect]| -> usize {
            let mut pairs = 0;
            for (i, a) in rects.iter().enumerate().take(100) {
                for b in rects.iter().skip(i + 1).take(100) {
                    pairs += usize::from(a.overlaps(b));
                }
            }
            pairs
        };
        let concentrated = overlap_pairs(&rects);
        let baseline = overlap_pairs(&regular);
        assert!(
            concentrated * 2 > baseline * 3,
            "overlapping batch ({concentrated} pairs) is not denser than the \
             regular workload ({baseline} pairs)"
        );
    }

    #[test]
    fn scattered_batches_are_deterministic_and_barely_overlap() {
        let batch = generate_scattered_batch(Region::NewYork, 400, 0.0002, 9);
        assert_eq!(batch.len(), 400);
        assert_eq!(
            batch,
            generate_scattered_batch(Region::NewYork, 400, 0.0002, 9)
        );
        assert_ne!(
            batch,
            generate_scattered_batch(Region::Japan, 400, 0.0002, 9),
            "different regions must season the jitter differently"
        );
        let rects: Vec<Rect> = batch
            .iter()
            .map(|q| match q {
                Query::Range { rect, mode } => {
                    assert_eq!(*mode, RangeMode::Count, "scattered batches count");
                    *rect
                }
                other => panic!("unexpected plan {other:?}"),
            })
            .collect();
        for rect in &rects {
            assert!(Rect::UNIT.contains_rect(rect));
            assert!((rect.area() - 0.0002).abs() < 1e-9);
        }
        // Anti-concentration: far fewer overlapping pairs than the
        // hotspot-concentrated batch of the same size and selectivity.
        let concentrated: Vec<Rect> = generate_overlapping_batch(Region::NewYork, 400, 0.0002, 9)
            .iter()
            .map(|q| match q {
                Query::Range { rect, .. } => *rect,
                other => panic!("unexpected plan {other:?}"),
            })
            .collect();
        let overlap_pairs = |rects: &[Rect]| -> usize {
            let mut pairs = 0;
            for (i, a) in rects.iter().enumerate().take(100) {
                for b in rects.iter().skip(i + 1).take(100) {
                    pairs += usize::from(a.overlaps(b));
                }
            }
            pairs
        };
        let scattered_pairs = overlap_pairs(&rects);
        let hot_pairs = overlap_pairs(&concentrated);
        assert!(
            scattered_pairs * 10 < hot_pairs.max(10),
            "scattered batch overlaps too much: {scattered_pairs} pairs vs \
             {hot_pairs} concentrated"
        );
    }

    #[test]
    fn point_batches_have_duplicates_and_misses() {
        let batch = generate_point_batch(Region::NewYork, 400, 17);
        assert_eq!(batch.len(), 400);
        assert_eq!(batch, generate_point_batch(Region::NewYork, 400, 17));
        let probes: Vec<_> = batch
            .iter()
            .map(|q| match q {
                Query::Point(p) => *p,
                other => panic!("unexpected plan {other:?}"),
            })
            .collect();
        let mut sorted = probes.clone();
        sorted.sort_by(|a, b| a.lex_cmp(b));
        sorted.dedup();
        assert!(
            sorted.len() < probes.len() * 9 / 10,
            "hot-key duplicates missing: {} distinct of {}",
            sorted.len(),
            probes.len()
        );
        assert!(
            probes.iter().any(|p| p.x > 1.0),
            "out-of-space miss probes missing"
        );
        for query in &batch {
            query.validate().expect("generated probes are valid");
        }
    }

    #[test]
    fn knn_batches_are_concentrated_and_deterministic() {
        let batch = generate_knn_batch(Region::Japan, 200, 8, 23);
        assert_eq!(batch.len(), 200);
        assert_eq!(batch, generate_knn_batch(Region::Japan, 200, 8, 23));
        for query in &batch {
            match query {
                Query::Knn { k, .. } => assert_eq!(*k, 8),
                other => panic!("unexpected plan {other:?}"),
            }
            query.validate().expect("generated kNN plans are valid");
        }
    }

    #[test]
    #[should_panic(expected = "mix weights")]
    fn all_zero_mix_is_rejected() {
        let zero = BatchMix {
            range: 0.0,
            point: 0.0,
            knn: 0.0,
            knn_k: 1,
        };
        let _ = generate_mixed_batch_with_mix(Region::Japan, 1, 0.001, 1, zero);
    }
}
