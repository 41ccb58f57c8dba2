//! Unit tests of the Z-index: query correctness on every execution path of
//! the shared scan kernel, updates, and structural invariants.

use crate::config::{DensityMode, ZIndexConfig};
use crate::index::{IndexError, SpatialIndex};
use crate::ZIndexBuilder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wazi_geom::{Point, Rect};
use wazi_storage::ExecStats;

fn uniform_points(n: usize, seed: u64) -> Vec<Point> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Point::new(rng.gen::<f64>(), rng.gen::<f64>()))
        .collect()
}

fn skewed_queries(n: usize, seed: u64) -> Vec<Rect> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let cx = 0.2 + rng.gen::<f64>() * 0.2;
            let cy = 0.6 + rng.gen::<f64>() * 0.2;
            Rect::query_box(&Rect::UNIT, Point::new(cx, cy), 0.001, 1.0)
        })
        .collect()
}

fn brute_force(points: &[Point], query: &Rect) -> Vec<Point> {
    let mut r: Vec<Point> = points
        .iter()
        .copied()
        .filter(|p| query.contains(p))
        .collect();
    r.sort_by(|a, b| a.lex_cmp(b));
    r
}

fn small_config() -> ZIndexConfig {
    ZIndexConfig::wazi().with_leaf_capacity(32).with_kappa(8)
}

#[test]
fn base_index_answers_range_queries_exactly() {
    let points = uniform_points(3_000, 1);
    let index = ZIndexBuilder::base()
        .with_config(ZIndexConfig::base().with_leaf_capacity(64))
        .build(points.clone(), &[]);
    assert_eq!(index.len(), points.len());
    let mut stats = ExecStats::default();
    for query in [
        Rect::from_coords(0.1, 0.1, 0.3, 0.3),
        Rect::from_coords(0.0, 0.0, 1.0, 1.0),
        Rect::from_coords(0.45, 0.45, 0.55, 0.55),
        Rect::from_coords(0.9, 0.0, 1.0, 0.1),
    ] {
        let mut got = index.range_query(&query, &mut stats);
        got.sort_by(|a, b| a.lex_cmp(b));
        assert_eq!(got, brute_force(&points, &query));
    }
}

#[test]
fn wazi_index_answers_range_queries_exactly() {
    let points = uniform_points(3_000, 2);
    let queries = skewed_queries(200, 3);
    let index = ZIndexBuilder::wazi()
        .with_config(small_config())
        .build(points.clone(), &queries);
    index.verify_lookahead_invariant().expect("skip pointers");
    let mut stats = ExecStats::default();
    for query in queries.iter().take(50) {
        let mut got = index.range_query(query, &mut stats);
        got.sort_by(|a, b| a.lex_cmp(b));
        assert_eq!(got, brute_force(&points, query));
    }
    // Also exact on queries far away from the training workload.
    for query in [
        Rect::from_coords(0.8, 0.05, 0.95, 0.2),
        Rect::from_coords(0.0, 0.0, 1.0, 1.0),
    ] {
        let mut got = index.range_query(&query, &mut stats);
        got.sort_by(|a, b| a.lex_cmp(b));
        assert_eq!(got, brute_force(&points, &query));
    }
}

/// Every execution mode of the scan kernel must agree: the count path and
/// the streaming path see exactly the multiset the materializing path
/// returns, and all three charge identical work counters.
#[test]
fn kernel_execution_modes_agree_and_charge_identical_work() {
    let points = uniform_points(4_000, 21);
    let queries = skewed_queries(60, 22);
    let index = ZIndexBuilder::wazi()
        .with_config(small_config())
        .build(points.clone(), &queries);
    for query in queries.iter().chain([Rect::UNIT].iter()) {
        let mut collect_stats = ExecStats::default();
        let mut collected = index.range_query(query, &mut collect_stats);

        let mut count_stats = ExecStats::default();
        let count = index.range_count(query, &mut count_stats);

        let mut stream_stats = ExecStats::default();
        let mut streamed = Vec::new();
        index.range_for_each(query, &mut stream_stats, &mut |p| streamed.push(*p));

        assert_eq!(count, collected.len() as u64);
        collected.sort_by(|a, b| a.lex_cmp(b));
        streamed.sort_by(|a, b| a.lex_cmp(b));
        assert_eq!(collected, streamed);

        for (label, other) in [("count", &count_stats), ("stream", &stream_stats)] {
            assert_eq!(collect_stats.bbs_checked, other.bbs_checked, "{label}");
            assert_eq!(collect_stats.pages_scanned, other.pages_scanned, "{label}");
            assert_eq!(
                collect_stats.points_scanned, other.points_scanned,
                "{label}"
            );
            assert_eq!(collect_stats.results, other.results, "{label}");
            assert_eq!(
                collect_stats.leaves_skipped, other.leaves_skipped,
                "{label}"
            );
        }
    }
}

#[test]
fn point_queries_find_every_indexed_point() {
    let points = uniform_points(2_000, 4);
    let queries = skewed_queries(100, 5);
    let index = ZIndexBuilder::wazi()
        .with_config(small_config())
        .build(points.clone(), &queries);
    let mut stats = ExecStats::default();
    for p in points.iter().step_by(13) {
        assert!(index.point_query(p, &mut stats), "missing point {p}");
    }
    assert!(!index.point_query(&Point::new(2.0, 2.0), &mut stats));
    assert!(!index.point_query(&Point::new(0.123456, 0.654321), &mut stats));
}

#[test]
fn exact_density_mode_builds_equivalent_results() {
    let points = uniform_points(1_500, 6);
    let queries = skewed_queries(100, 7);
    let index = ZIndexBuilder::wazi()
        .with_config(small_config().with_density(DensityMode::Exact))
        .build(points.clone(), &queries);
    let mut stats = ExecStats::default();
    for query in queries.iter().take(20) {
        let mut got = index.range_query(query, &mut stats);
        got.sort_by(|a, b| a.lex_cmp(b));
        assert_eq!(got, brute_force(&points, query));
    }
}

#[test]
fn skipping_reduces_bounding_box_checks() {
    let points = uniform_points(8_000, 8);
    let queries = skewed_queries(200, 9);
    let config = small_config();
    let with_skip = ZIndexBuilder::wazi()
        .with_config(config)
        .build(points.clone(), &queries);
    let without_skip = ZIndexBuilder::wazi()
        .with_config(
            ZIndexConfig::wazi_without_skipping()
                .with_leaf_capacity(32)
                .with_kappa(8),
        )
        .build(points.clone(), &queries);
    let mut skip_stats = ExecStats::default();
    let mut plain_stats = ExecStats::default();
    for q in &queries {
        with_skip.range_query(q, &mut skip_stats);
        without_skip.range_query(q, &mut plain_stats);
    }
    assert_eq!(skip_stats.results, plain_stats.results);
    assert!(
        skip_stats.bbs_checked < plain_stats.bbs_checked,
        "skipping should check fewer bounding boxes ({} vs {})",
        skip_stats.bbs_checked,
        plain_stats.bbs_checked
    );
}

#[test]
fn wazi_does_less_total_work_than_base_on_a_skewed_workload() {
    let points = uniform_points(10_000, 10);
    let queries = skewed_queries(300, 11);
    let base = ZIndexBuilder::base()
        .with_config(ZIndexConfig::base().with_leaf_capacity(32))
        .build(points.clone(), &[]);
    let wazi = ZIndexBuilder::wazi()
        .with_config(small_config())
        .build(points.clone(), &queries);
    let mut base_stats = ExecStats::default();
    let mut wazi_stats = ExecStats::default();
    for q in &queries {
        base.range_query(q, &mut base_stats);
        wazi.range_query(q, &mut wazi_stats);
    }
    assert_eq!(base_stats.results, wazi_stats.results);
    // Total scanning-phase work: points compared plus bounding boxes
    // checked. The skipping mechanism removes the bulk of the bounding
    // box comparisons, which dominates on this workload.
    let base_work = base_stats.points_scanned + base_stats.bbs_checked;
    let wazi_work = wazi_stats.points_scanned + wazi_stats.bbs_checked;
    assert!(
        wazi_work < base_work,
        "WaZI total work ({wazi_work}) should be below Base ({base_work})"
    );
    assert!(
        wazi_stats.bbs_checked * 2 < base_stats.bbs_checked,
        "skipping should cut bounding-box checks at least in half ({} vs {})",
        wazi_stats.bbs_checked,
        base_stats.bbs_checked
    );
}

/// Mirrors the paper's evaluation regime: clustered (OSM-like) data with
/// a query workload concentrated on a sub-region (Gowalla-like
/// check-ins). Adaptive partitioning should reduce the points scanned
/// relative to the base median layout in this setting.
#[test]
fn wazi_scans_fewer_points_on_clustered_data() {
    let mut rng = StdRng::seed_from_u64(20);
    let mut points = Vec::new();
    // Three dense clusters plus a sparse uniform background.
    let clusters = [(0.25, 0.7, 0.04), (0.7, 0.3, 0.06), (0.55, 0.75, 0.03)];
    for &(cx, cy, spread) in &clusters {
        for _ in 0..2_500 {
            let x = (cx + (rng.gen::<f64>() - 0.5) * spread * 4.0).clamp(0.0, 1.0);
            let y = (cy + (rng.gen::<f64>() - 0.5) * spread * 4.0).clamp(0.0, 1.0);
            points.push(Point::new(x, y));
        }
    }
    for _ in 0..2_500 {
        points.push(Point::new(rng.gen::<f64>(), rng.gen::<f64>()));
    }
    // Queries concentrate on the first cluster but are offset from its
    // centre, so the query distribution differs from the data
    // distribution (the paper's central experimental premise).
    let queries: Vec<Rect> = (0..300)
        .map(|_| {
            let cx = 0.28 + (rng.gen::<f64>() - 0.5) * 0.1;
            let cy = 0.65 + (rng.gen::<f64>() - 0.5) * 0.1;
            Rect::query_box(&Rect::UNIT, Point::new(cx, cy), 0.0005, 1.0)
        })
        .collect();

    let base = ZIndexBuilder::base()
        .with_config(ZIndexConfig::base().with_leaf_capacity(32))
        .build(points.clone(), &[]);
    let wazi = ZIndexBuilder::wazi()
        .with_config(small_config().with_kappa(16))
        .build(points.clone(), &queries);
    let mut base_stats = ExecStats::default();
    let mut wazi_stats = ExecStats::default();
    for q in &queries {
        base.range_query(q, &mut base_stats);
        wazi.range_query(q, &mut wazi_stats);
    }
    assert_eq!(base_stats.results, wazi_stats.results);
    let base_work = base_stats.points_scanned + base_stats.bbs_checked;
    let wazi_work = wazi_stats.points_scanned + wazi_stats.bbs_checked;
    assert!(
        wazi_work < base_work,
        "WaZI total work ({wazi_work}) should be below Base ({base_work}) on clustered data"
    );
}

#[test]
fn inserts_preserve_query_correctness_and_structure() {
    let points = uniform_points(1_000, 12);
    let queries = skewed_queries(50, 13);
    let mut index = ZIndexBuilder::wazi()
        .with_config(small_config())
        .build(points.clone(), &queries);
    let inserts = uniform_points(600, 14);
    for p in &inserts {
        index.insert(*p).expect("insert");
    }
    assert_eq!(index.len(), points.len() + inserts.len());
    index.verify_structure().expect("structure after inserts");
    index
        .verify_lookahead_invariant()
        .expect("pointers stay safe");

    let mut all = points.clone();
    all.extend_from_slice(&inserts);
    let mut stats = ExecStats::default();
    for query in queries.iter().take(20) {
        let mut got = index.range_query(query, &mut stats);
        got.sort_by(|a, b| a.lex_cmp(b));
        assert_eq!(got, brute_force(&all, query));
    }

    // Rebuilding the pointers restores maximal skipping and stays safe.
    index.rebuild_lookahead();
    index
        .verify_lookahead_invariant()
        .expect("rebuilt pointers");
    for query in queries.iter().take(20) {
        let mut got = index.range_query(query, &mut stats);
        got.sort_by(|a, b| a.lex_cmp(b));
        assert_eq!(got, brute_force(&all, query));
    }
}

#[test]
fn deletes_remove_points_and_keep_queries_exact() {
    let points = uniform_points(1_200, 15);
    let mut index = ZIndexBuilder::base()
        .with_config(ZIndexConfig::base().with_leaf_capacity(32))
        .build(points.clone(), &[]);
    let mut remaining = points.clone();
    for p in points.iter().step_by(3) {
        assert_eq!(index.delete(p), Ok(true));
        let pos = remaining.iter().position(|q| q == p).unwrap();
        remaining.swap_remove(pos);
    }
    assert_eq!(index.delete(&Point::new(5.0, 5.0)), Ok(false));
    assert_eq!(index.len(), remaining.len());
    index.verify_structure().expect("structure after deletes");
    let mut stats = ExecStats::default();
    let query = Rect::from_coords(0.2, 0.2, 0.8, 0.8);
    let mut got = index.range_query(&query, &mut stats);
    got.sort_by(|a, b| a.lex_cmp(b));
    assert_eq!(got, brute_force(&remaining, &query));
}

#[test]
fn a_delete_that_misses_leaves_every_page_shared_with_a_fork() {
    let points = uniform_points(600, 16);
    let mut index = ZIndexBuilder::base()
        .with_config(ZIndexConfig::base().with_leaf_capacity(32))
        .build(points.clone(), &[]);
    let fork = index.clone();
    let shared = |index: &crate::ZIndex| {
        index
            .store
            .pages()
            .filter(|page| index.store.shares_page_with(&fork.store, page.id()))
            .count()
    };
    let pages = index.store.page_count();
    // Inside a leaf's bounding box but not stored, and outside every box.
    let mut near = points[0];
    near.x += 1e-9;
    assert_eq!(index.delete(&near), Ok(false));
    assert_eq!(index.delete(&Point::new(5.0, 5.0)), Ok(false));
    assert_eq!(shared(&index), pages, "a miss must not unshare a page");
    // A hit unshares exactly the page it touches.
    assert_eq!(index.delete(&points[0]), Ok(true));
    assert_eq!(shared(&index), pages - 1);
    assert_eq!(fork.len(), points.len());
}

#[test]
fn insert_into_empty_index_bootstraps_a_leaf() {
    let mut index = ZIndexBuilder::wazi().build(Vec::new(), &[]);
    assert!(index.is_empty());
    index.insert(Point::new(0.5, 0.5)).expect("insert");
    index.insert(Point::new(0.25, 0.75)).expect("insert");
    assert_eq!(index.len(), 2);
    let mut stats = ExecStats::default();
    assert!(index.point_query(&Point::new(0.5, 0.5), &mut stats));
    assert_eq!(index.range_query(&Rect::UNIT, &mut stats).len(), 2);
    assert_eq!(index.range_count(&Rect::UNIT, &mut stats), 2);
}

#[test]
fn non_finite_inserts_are_rejected() {
    let mut index = ZIndexBuilder::base().build(uniform_points(100, 16), &[]);
    assert!(matches!(
        index.insert(Point::new(f64::NAN, 0.5)),
        Err(IndexError::InvalidInput(_))
    ));
    assert_eq!(index.len(), 100);
}

#[test]
fn metadata_accessors_are_consistent() {
    let points = uniform_points(2_000, 17);
    let queries = skewed_queries(100, 18);
    let index = ZIndexBuilder::wazi()
        .with_config(small_config())
        .build(points, &queries);
    assert_eq!(index.name(), "WaZI");
    assert!(index.leaf_count() > 1);
    assert!(index.internal_count() >= 1);
    assert!(index.height() >= 2);
    assert!(index.size_bytes() > 0);
    assert!(index.build_report().build_ns > 0);
    assert!(index.build_report().candidates_evaluated > 0);
    assert!((0.0..=1.0).contains(&index.acbd_fraction()));
    assert!(Rect::UNIT.contains_rect(&index.data_space()));
    assert_eq!(index.data_bounds(), index.data_space());
    assert!(index.skipping_enabled());
}

#[test]
fn knn_on_zindex_matches_brute_force() {
    let points = uniform_points(2_000, 19);
    let index = ZIndexBuilder::base()
        .with_config(ZIndexConfig::base().with_leaf_capacity(64))
        .build(points.clone(), &[]);
    let mut stats = ExecStats::default();
    let q = Point::new(0.33, 0.71);
    let got = index.knn(&q, 10, &mut stats);
    let mut expected = points.clone();
    expected.sort_by(|a, b| a.distance_squared(&q).total_cmp(&b.distance_squared(&q)));
    expected.truncate(10);
    assert_eq!(got, expected);
}

/// A query point far outside the data space must not poison the kNN search:
/// the final sweep is clamped to the index's data bounds instead of an
/// unbounded rectangle.
#[test]
fn knn_far_outside_the_data_space_stays_exact() {
    let points = uniform_points(500, 23);
    let index = ZIndexBuilder::base()
        .with_config(ZIndexConfig::base().with_leaf_capacity(32))
        .build(points.clone(), &[]);
    let mut stats = ExecStats::default();
    let q = Point::new(1.0e12, -5.0e11);
    let got = index.knn(&q, 5, &mut stats);
    let mut expected = points.clone();
    expected.sort_by(|a, b| a.distance_squared(&q).total_cmp(&b.distance_squared(&q)));
    expected.truncate(5);
    assert_eq!(got, expected);
}

#[test]
fn verify_structure_catches_a_wrong_subtree_count() {
    let mut index = ZIndexBuilder::base()
        .with_config(ZIndexConfig::base().with_leaf_capacity(32))
        .build(uniform_points(1_000, 29), &[]);
    index
        .verify_structure()
        .expect("a fresh build is consistent");
    let last = index.nodes.len() - 1;
    index.nodes[last].count += 1;
    let err = index.verify_structure().expect_err("a corrupted count");
    assert!(err.contains("count"), "{err}");
}

/// A base index over 4 000 uniform points plus 4 000 packed into the
/// square `[0.10, 0.15]²`.
fn clustered_index() -> crate::ZIndex {
    let mut points = uniform_points(4_000, 31);
    let mut rng = StdRng::seed_from_u64(37);
    points.extend((0..4_000).map(|_| {
        Point::new(
            0.10 + rng.gen::<f64>() * 0.05,
            0.10 + rng.gen::<f64>() * 0.05,
        )
    }));
    ZIndexBuilder::base()
        .with_config(ZIndexConfig::base().with_leaf_capacity(64))
        .build(points, &[])
}

#[test]
fn knn_seed_is_smaller_in_a_dense_cell_than_in_a_sparse_one() {
    let index = clustered_index();
    let mut stats = ExecStats::default();
    let dense = index
        .knn_seed_radius(&Point::new(0.125, 0.125), 8, &mut stats)
        .expect("inside the data space");
    let sparse = index
        .knn_seed_radius(&Point::new(0.8, 0.8), 8, &mut stats)
        .expect("inside the data space");
    assert!(dense * 4.0 < sparse, "dense {dense}, sparse {sparse}");
}

#[test]
fn knn_seed_on_a_uniform_grid_is_near_the_uniform_radius() {
    let points: Vec<Point> = (0..10_000)
        .map(|i| Point::new((i % 100) as f64 / 100.0, (i / 100) as f64 / 100.0))
        .collect();
    let index = ZIndexBuilder::base()
        .with_config(ZIndexConfig::base().with_leaf_capacity(64))
        .build(points, &[]);
    let k = 8;
    let uniform = (k as f64 * index.data_bounds().area() / index.len() as f64).sqrt();
    let mut stats = ExecStats::default();
    for q in [(0.5, 0.5), (0.123, 0.877), (0.01, 0.02), (0.98, 0.5)] {
        let seed = index
            .knn_seed_radius(&Point::new(q.0, q.1), k, &mut stats)
            .expect("inside the data space");
        assert!(
            uniform / 2.0 <= seed && seed <= uniform * 2.0,
            "{q:?}: seed {seed}, uniform {uniform}"
        );
    }
}

#[test]
fn knn_seed_falls_back_to_uniform_outside_the_data_or_without_k_points() {
    let index = clustered_index();
    let mut stats = ExecStats::default();
    for q in [Point::new(1.5, 0.5), Point::new(-0.1, 0.2)] {
        assert_eq!(index.knn_seed_radius(&q, 8, &mut stats), None, "{q:?}");
    }
    let inside = Point::new(0.5, 0.5);
    let every = index.len() + 1;
    assert_eq!(index.knn_seed_radius(&inside, every, &mut stats), None);
    let empty = ZIndexBuilder::base().build(Vec::new(), &[]);
    assert_eq!(empty.knn_seed_radius(&inside, 1, &mut stats), None);
    // Refusing the seed does no descent; `k` above every count still pays
    // the one descent that found no cell.
    let mut located = ExecStats::default();
    index.locate_leaf(&inside, &mut located);
    assert_eq!(stats, located);
}

#[test]
fn knn_seed_charges_exactly_one_descent() {
    let index = clustered_index();
    for q in [Point::new(0.125, 0.125), Point::new(0.8, 0.3)] {
        let mut seeded = ExecStats::default();
        index.knn_seed_radius(&q, 8, &mut seeded);
        let mut located = ExecStats::default();
        index.locate_leaf(&q, &mut located);
        assert!(located.nodes_visited > 0);
        assert_eq!(seeded, located, "{q:?}");
    }
}
