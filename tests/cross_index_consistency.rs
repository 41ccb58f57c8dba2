//! Cross-crate integration test: every index of the evaluation suite must
//! return exactly the same answers for the same workloads, since they all
//! index the same data. This is the end-to-end guarantee the whole benchmark
//! harness relies on — latency comparisons are only meaningful if the
//! indexes agree on correctness.
//!
//! With the layered query-execution engine, "the same answers" spans both
//! execution modes: the materializing `range_query` and the counting
//! `range_count` must agree for every index on every query. With the typed query-plan engine on top, the same
//! guarantee extends to batch execution: `execute_batch` must be output-
//! and counter-equivalent to the per-query loop on every index, whatever
//! scheduling strategy the engine picks internally.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wazi_bench::{build_index, IndexKind};
use wazi_core::{
    run_knn_batch, BatchStrategy, Query, QueryEngine, QueryOutput, SpatialIndex, VersionedIndex,
    WriteOp, ZIndex,
};
use wazi_geom::{Point, Rect};
use wazi_storage::ExecStats;
use wazi_workload::{
    generate_dataset, generate_mixed_batch, generate_overlapping_batch, generate_queries,
    generate_scattered_batch, sample_point_queries, Region, SELECTIVITIES,
};

fn sorted(mut points: Vec<Point>) -> Vec<Point> {
    points.sort_by(|a, b| a.lex_cmp(b));
    points
}

/// Every index kind of the evaluation, including the ablation variants.
fn all_kinds() -> impl Iterator<Item = IndexKind> {
    IndexKind::OVERVIEW
        .into_iter()
        .chain([IndexKind::WaziNoSkip, IndexKind::BaseSkip])
}

#[test]
fn all_indexes_agree_with_brute_force_on_every_region() {
    for region in Region::ALL {
        let points = generate_dataset(region, 6_000);
        let train = generate_queries(region, 200, SELECTIVITIES[1]);
        let eval = generate_queries(region, 60, SELECTIVITIES[2]);
        for kind in all_kinds() {
            let built = build_index(kind, &points, &train, 128);
            let mut stats = ExecStats::default();
            for query in &eval {
                let got = sorted(built.index.range_query(query, &mut stats));
                let expected = sorted(
                    points
                        .iter()
                        .copied()
                        .filter(|p| query.contains(p))
                        .collect(),
                );
                assert_eq!(got, expected, "{kind} disagrees on {region}");
            }
        }
    }
}

/// The engine-consistency property of the layered query executor: for every
/// index and every query, `range_count` equals the materialized result size
/// while charging identical work counters, since both modes share one scan
/// kernel per index.
#[test]
fn range_count_and_for_each_agree_with_range_query_for_every_index() {
    let mut rng = StdRng::seed_from_u64(0xC0DE);
    let region = Region::NewYork;
    let points = generate_dataset(region, 5_000);
    let train = generate_queries(region, 150, SELECTIVITIES[1]);
    // Training-shaped queries, unseen queries, random rectangles and
    // degenerate boxes all exercise both paths.
    let mut queries = generate_queries(region, 30, SELECTIVITIES[2]);
    for _ in 0..30 {
        let a = Point::new(rng.gen(), rng.gen());
        let b = Point::new(rng.gen(), rng.gen());
        queries.push(Rect::from_corners(a, b));
    }
    queries.push(Rect::UNIT);
    queries.push(Rect::from_coords(0.5, 0.5, 0.5, 0.5));

    for kind in all_kinds() {
        let built = build_index(kind, &points, &train, 128);
        for query in &queries {
            let mut query_stats = ExecStats::default();
            let materialized = built.index.range_query(query, &mut query_stats);

            let mut count_stats = ExecStats::default();
            let count = built.index.range_count(query, &mut count_stats);

            assert_eq!(
                count,
                materialized.len() as u64,
                "{kind}: range_count disagrees with range_query on {query}"
            );
            // Both modes share one scan kernel per index, so the work
            // counters of the paper's cost model must be identical.
            assert_eq!(
                counters(&count_stats),
                counters(&query_stats),
                "{kind}: counters differ on {query}"
            );
        }
    }
}

/// A `Stream` range plan executed on its own is a count under another name:
/// on every index kind and on a snapshot pinned after a write burst,
/// `execute(range_stream(r))` answers `Streamed(n)` with the `n` of
/// `execute(range_count(r))`, and charges the same work counters.
#[test]
fn stream_plans_answer_and_charge_as_count_plans() {
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let region = Region::Iberia;
    let points = generate_dataset(region, 4_000);
    let train = generate_queries(region, 120, SELECTIVITIES[1]);
    let mut queries = generate_queries(region, 25, SELECTIVITIES[2]);
    for _ in 0..25 {
        let a = Point::new(rng.gen(), rng.gen());
        let b = Point::new(rng.gen(), rng.gen());
        queries.push(Rect::from_corners(a, b));
    }
    queries.push(Rect::UNIT);
    queries.push(Rect::from_coords(0.5, 0.5, 0.5, 0.5));

    let versioned = VersionedIndex::new(ZIndex::build_wazi(points.clone(), &train));
    let mut burst: Vec<WriteOp> = (0..200)
        .map(|_| WriteOp::Insert(Point::new(rng.gen(), rng.gen())))
        .collect();
    burst.extend(points.iter().step_by(40).copied().map(WriteOp::Delete));
    burst.push(WriteOp::Maintain);
    versioned.apply(&burst).expect("the burst applies");
    let snapshot = versioned.snapshot();

    let built: Vec<_> = all_kinds()
        .map(|kind| build_index(kind, &points, &train, 128))
        .collect();
    let indexes = built
        .iter()
        .map(|built| (built.kind.to_string(), built.index.as_ref()))
        .chain([("snapshot".to_string(), &snapshot as &dyn SpatialIndex)]);
    for (name, index) in indexes {
        let engine = QueryEngine::new(index);
        for rect in &queries {
            let streamed = engine.execute(&Query::range_stream(*rect)).unwrap();
            let counted = engine.execute(&Query::range_count(*rect)).unwrap();
            let QueryOutput::Count(n) = counted.output else {
                panic!("{name}: a count plan answered {:?}", counted.output);
            };
            assert_eq!(streamed.output, QueryOutput::Streamed(n), "{name}: {rect}");
            assert_eq!(
                counters(&streamed.stats),
                counters(&counted.stats),
                "{name}: counters on {rect}"
            );
        }
    }
}

#[test]
fn all_indexes_find_their_own_points_and_reject_missing_ones() {
    let region = Region::Japan;
    let points = generate_dataset(region, 4_000);
    let train = generate_queries(region, 100, SELECTIVITIES[1]);
    let probes = sample_point_queries(&points, 300, 5);
    for kind in IndexKind::OVERVIEW {
        let built = build_index(kind, &points, &train, 128);
        let mut stats = ExecStats::default();
        for probe in &probes {
            assert!(
                built.index.point_query(probe, &mut stats),
                "{kind} lost an indexed point"
            );
        }
        assert!(
            !built.index.point_query(&Point::new(1.5, -0.5), &mut stats),
            "{kind} claims to hold an out-of-space point"
        );
    }
}

#[test]
fn knn_agrees_across_indexes() {
    let region = Region::CaliNev;
    let points = generate_dataset(region, 3_000);
    let train = generate_queries(region, 100, SELECTIVITIES[1]);
    let mut expected = points.clone();
    let q = Point::new(0.31, 0.62);
    expected.sort_by(|a, b| a.distance_squared(&q).total_cmp(&b.distance_squared(&q)));
    expected.truncate(8);
    for kind in [
        IndexKind::Wazi,
        IndexKind::Base,
        IndexKind::Str,
        IndexKind::Flood,
    ] {
        let built = build_index(kind, &points, &train, 128);
        let mut stats = ExecStats::default();
        let got = built.index.knn(&q, 8, &mut stats);
        assert_eq!(got, expected, "{kind} kNN disagrees");
    }
}

/// The kNN fallback sweep is clamped to each index's data bounds, so a query
/// point astronomically far from the data still terminates and stays exact.
#[test]
fn knn_from_far_outside_the_data_space_agrees_across_indexes() {
    let region = Region::Iberia;
    let points = generate_dataset(region, 2_000);
    let train = generate_queries(region, 80, SELECTIVITIES[1]);
    let q = Point::new(3.0e8, -7.0e8);
    let mut expected = points.clone();
    expected.sort_by(|a, b| a.distance_squared(&q).total_cmp(&b.distance_squared(&q)));
    expected.truncate(5);
    for kind in [
        IndexKind::Wazi,
        IndexKind::Base,
        IndexKind::Str,
        IndexKind::Cur,
        IndexKind::Flood,
        IndexKind::Quasii,
        IndexKind::Zpgm,
    ] {
        let built = build_index(kind, &points, &train, 128);
        let mut stats = ExecStats::default();
        let got = built.index.knn(&q, 5, &mut stats);
        assert_eq!(got, expected, "{kind} far-query kNN disagrees");
    }
}

/// A non-finite centre has no nearest neighbours: its sweep box could never
/// cover the data, so the doubling loop would not end. Every kind and a
/// snapshot answer it with no neighbours and charge no work (not even a
/// seed descent), solo or fused, and a fused ring batch holding one still
/// answers its finite plans exactly as `knn` does.
#[test]
fn knn_from_a_non_finite_centre_answers_empty_across_indexes() {
    let region = Region::NewYork;
    let points = generate_dataset(region, 2_000);
    let train = generate_queries(region, 80, SELECTIVITIES[1]);
    let centres = [
        Point::new(f64::NAN, 0.5),
        Point::new(f64::INFINITY, 0.5),
        Point::new(0.5, f64::NEG_INFINITY),
    ];
    let snapshot = VersionedIndex::new(ZIndex::build_wazi(points.clone(), &train)).snapshot();
    let built: Vec<_> = all_kinds()
        .map(|kind| build_index(kind, &points, &train, 128))
        .collect();
    let indexes = built
        .iter()
        .map(|built| (built.kind.to_string(), built.index.as_ref()))
        .chain([("snapshot".to_string(), &snapshot as &dyn SpatialIndex)]);
    for (name, index) in indexes {
        let mut stats = ExecStats::default();
        for q in centres {
            assert!(index.knn(&q, 3, &mut stats).is_empty(), "{name}: {q:?}");
        }
        // No seed descent, no ring: such plans charge nothing.
        assert_eq!(stats, ExecStats::default(), "{name}: solo counters");
        let Some(kernel) = index.range_batch_kernel() else {
            continue;
        };
        let plans = [
            (Point::new(0.50, 0.47), 4),
            (centres[0], 4),
            (Point::new(0.51, 0.48), 6),
            (centres[1], 2),
            (Point::new(0.52, 0.47), 1),
        ];
        let (response, _) = run_knn_batch(index, kernel, &plans, 1);
        for (((q, k), got), charged) in plans
            .iter()
            .zip(&response.neighbors)
            .zip(&response.per_query)
        {
            let expected = index.knn(q, *k, &mut stats);
            assert_eq!(got, &expected, "{name}: batched plan ({q:?}, {k})");
            assert_eq!(got.len(), if q.is_finite() { *k } else { 0 }, "{name}");
            if !q.is_finite() {
                assert_eq!(
                    charged,
                    &ExecStats::default(),
                    "{name}: fused counters of {q:?}"
                );
            }
        }
    }
}

/// The batch-equivalence guarantee of the query engine: for all seven
/// indexes, `execute_batch` over a mixed 200-query batch (range queries in
/// all three modes, point probes, kNN) returns byte-identical outputs and
/// identical merged `ExecStats` counters vs. the per-query `execute` loop.
#[test]
fn execute_batch_is_equivalent_to_the_per_query_loop_for_every_index() {
    let region = Region::NewYork;
    let points = generate_dataset(region, 5_000);
    let train = generate_queries(region, 150, SELECTIVITIES[1]);
    let batch = generate_mixed_batch(region, 200, SELECTIVITIES[2], 0xBEEF);
    assert_eq!(batch.len(), 200);

    for kind in all_kinds() {
        let built = build_index(kind, &points, &train, 128);
        let engine =
            QueryEngine::new(built.index.as_ref()).with_strategy(BatchStrategy::Sequential);
        let mut loop_outputs = Vec::with_capacity(batch.len());
        let mut loop_stats = ExecStats::default();
        for query in &batch {
            let report = engine.execute(query).expect("generated plans are valid");
            loop_stats.merge(&report.stats);
            loop_outputs.push(report.output);
        }

        let batch_report = engine.execute_batch(&batch).expect("batch executes");
        assert_eq!(batch_report.len(), batch.len(), "{kind}");
        assert_eq!(
            batch_report.fused_queries, 0,
            "{kind}: the sequential strategy fuses nothing"
        );
        for (i, (got, expected)) in batch_report.reports.iter().zip(&loop_outputs).enumerate() {
            assert_eq!(&got.output, expected, "{kind}: output {i} differs");
        }
        // Identical merged work counters (timings are wall-clock noise).
        let merged = batch_report.merged_stats();
        for (label, a, b) in [
            (
                "points_scanned",
                merged.points_scanned,
                loop_stats.points_scanned,
            ),
            (
                "pages_scanned",
                merged.pages_scanned,
                loop_stats.pages_scanned,
            ),
            ("bbs_checked", merged.bbs_checked, loop_stats.bbs_checked),
            (
                "nodes_visited",
                merged.nodes_visited,
                loop_stats.nodes_visited,
            ),
            (
                "leaves_skipped",
                merged.leaves_skipped,
                loop_stats.leaves_skipped,
            ),
            ("results", merged.results, loop_stats.results),
        ] {
            assert_eq!(a, b, "{kind}: merged {label} differs from the loop's");
        }

        // The fused strategy must change scheduling only, never answers.
        let fused = QueryEngine::new(built.index.as_ref())
            .with_strategy(BatchStrategy::Fused)
            .execute_batch(&batch)
            .expect("fused batch executes");
        for (i, (got, expected)) in fused.reports.iter().zip(&loop_outputs).enumerate() {
            assert_eq!(&got.output, expected, "{kind}: fused output {i} differs");
        }
        assert_eq!(
            fused.merged_stats().results,
            loop_stats.results,
            "{kind}: fused results counter differs"
        );

        // The engine's default is the cost-based Auto scheduler: whatever
        // it picks must also be a pure scheduling choice.
        let auto = QueryEngine::new(built.index.as_ref())
            .execute_batch(&batch)
            .expect("auto batch executes");
        for (i, (got, expected)) in auto.reports.iter().zip(&loop_outputs).enumerate() {
            assert_eq!(&got.output, expected, "{kind}: auto output {i} differs");
        }
        assert_eq!(
            auto.merged_stats().results,
            loop_stats.results,
            "{kind}: auto results counter differs"
        );
    }
}

/// The fused-work invariant across the whole suite: fusion shares physical
/// work, it never adds any. On every index that advertises a batch kernel,
/// the fused strategy must check at most as many bounding boxes as the
/// sequential loop on the same overlapping batch (each query keeps its own
/// skip cursor, so its walk replicates the sequential one), while scanning
/// no more pages and exactly the same points. Indexes without a kernel
/// trivially tie. Sharded runs are held to the *tighter* bar: every query
/// is walked once before the batch's distinct pages are cut into chunks,
/// so `FusedParallel` bounding-box checks must **equal** the single scan's
/// — and the sequential loop's — for every shard count.
#[test]
fn fused_bb_checks_never_exceed_sequential_on_any_index() {
    let region = Region::NewYork;
    let points = generate_dataset(region, 5_000);
    let train = generate_queries(region, 150, SELECTIVITIES[1]);
    let batch: Vec<_> = generate_queries(region, 120, SELECTIVITIES[3])
        .into_iter()
        .map(wazi_core::Query::range_count)
        .collect();
    let mut kernels = Vec::new();
    for kind in all_kinds() {
        let built = build_index(kind, &points, &train, 128);
        let sequential = QueryEngine::new(built.index.as_ref())
            .with_strategy(BatchStrategy::Sequential)
            .execute_batch(&batch)
            .expect("sequential batch executes");
        let fused = QueryEngine::new(built.index.as_ref())
            .with_strategy(BatchStrategy::Fused)
            .execute_batch(&batch)
            .expect("fused batch executes");
        kernels.push((kind, built.index.range_batch_kernel().is_some()));
        assert!(
            fused.bbs_checked() <= sequential.bbs_checked(),
            "{kind}: fused checks {} bounding boxes, sequential {}",
            fused.bbs_checked(),
            sequential.bbs_checked()
        );
        assert!(
            fused.merged_stats().pages_scanned <= sequential.merged_stats().pages_scanned,
            "{kind}: fused scans more pages than sequential"
        );
        assert_eq!(
            fused.merged_stats().points_scanned,
            sequential.merged_stats().points_scanned,
            "{kind}: fusion changed the points compared"
        );
        assert_eq!(
            fused.merged_stats().results,
            sequential.merged_stats().results,
            "{kind}: fusion changed the answers"
        );
        // Sharded runs: BB checks equal the single-scan count exactly —
        // chunks split the scans, never a walk.
        for shards in [2usize, 4, 8] {
            let parallel = QueryEngine::new(built.index.as_ref())
                .with_strategy(BatchStrategy::FusedParallel { shards })
                .execute_batch(&batch)
                .expect("parallel batch executes");
            assert_eq!(
                parallel.bbs_checked(),
                sequential.bbs_checked(),
                "{kind}/{shards} shards: sharding changed the bounding-box count"
            );
            assert_eq!(
                parallel.merged_stats().leaves_skipped,
                sequential.merged_stats().leaves_skipped,
                "{kind}/{shards} shards: sharding changed the skip count"
            );
        }
    }
    // A kernel on every kind but Zpgm: its flat code array has no page
    // fetch to share.
    let expected: Vec<_> = all_kinds()
        .map(|kind| (kind, kind != IndexKind::Zpgm))
        .collect();
    assert_eq!(kernels, expected, "(kind, kernel) per index kind");
}

/// `stats` with the wall-clock fields zeroed: what is left is deterministic.
fn counters(stats: &ExecStats) -> ExecStats {
    ExecStats {
        projection_ns: 0,
        scan_ns: 0,
        ..*stats
    }
}

/// [`counters`] without the page visit, which fusion moves from the plan's
/// own record to the batch's shared one.
fn counters_but_pages(stats: &ExecStats) -> ExecStats {
    ExecStats {
        pages_scanned: 0,
        ..counters(stats)
    }
}

/// The one-route property of the fused range protocol: for every index —
/// built over real data and over no data at all — and every batch,
/// including more shards than queries and empty batches, `Sequential` ≡
/// `Fused` ≡ `FusedParallel { shards: 1 }` ≡ `FusedParallel { shards: n }`,
/// whatever the thread interleaving:
///
/// * outputs are identical in input order under every strategy, the
///   cost-based `Auto` included;
/// * every deterministic per-query counter equals the sequential loop's,
///   except the page visit, which fusion moves to the shared record;
/// * `Fused`, `FusedParallel { shards: n }` and `Auto` are the same run cut
///   into chunks of the distinct-page list, bit for bit on every
///   deterministic counter, shared page visits included: a page is fetched
///   once per batch whatever the shard count, and the total never exceeds
///   the sequential loop's. `Auto` only picks the shard count, so it fuses
///   every range plan of a batch with two or more, scattered or not.
#[test]
fn fused_parallel_is_equivalent_to_sequential_for_every_index_and_shard_count() {
    let region = Region::NewYork;
    let train = generate_queries(region, 150, SELECTIVITIES[1]);
    let datasets = [
        ("5k", generate_dataset(region, 5_000)),
        ("empty-index", Vec::new()),
    ];
    let batches: Vec<(&str, Vec<wazi_core::Query>)> = vec![
        ("empty", Vec::new()),
        (
            "smaller-than-shard-count",
            generate_overlapping_batch(region, 3, SELECTIVITIES[2], 5),
        ),
        (
            "overlapping-200",
            generate_overlapping_batch(region, 200, SELECTIVITIES[3], 11),
        ),
        (
            "mixed-120",
            generate_mixed_batch(region, 120, SELECTIVITIES[2], 0xD1CE),
        ),
        (
            "scattered-64",
            generate_scattered_batch(region, 64, SELECTIVITIES[0], 0x5CA7),
        ),
    ];
    let run = |index: &dyn wazi_core::SpatialIndex, strategy, batch: &[wazi_core::Query]| {
        QueryEngine::new(index)
            .with_strategy(strategy)
            .execute_batch(batch)
            .expect("batch executes")
    };
    for (data, points) in &datasets {
        for kind in all_kinds() {
            let built = build_index(kind, points, &train, 128);
            let index = built.index.as_ref();
            for (label, batch) in &batches {
                let at = format!("{kind}/{data}/{label}");
                let sequential = run(index, BatchStrategy::Sequential, batch);
                let fused = run(index, BatchStrategy::Fused, batch);
                for (name, strategy) in [
                    ("fused", BatchStrategy::Fused),
                    ("parallel/1", BatchStrategy::FusedParallel { shards: 1 }),
                    ("parallel/2", BatchStrategy::FusedParallel { shards: 2 }),
                    ("parallel/4", BatchStrategy::FusedParallel { shards: 4 }),
                    ("parallel/8", BatchStrategy::FusedParallel { shards: 8 }),
                    ("auto", BatchStrategy::Auto),
                ] {
                    let report = run(index, strategy, batch);
                    assert_eq!(report.len(), sequential.len(), "{at}/{name}");
                    for (i, (got, want)) in
                        report.reports.iter().zip(&sequential.reports).enumerate()
                    {
                        assert_eq!(got.output, want.output, "{at}/{name}: output {i}");
                        // Whichever route a plan took, its walk is its solo
                        // walk; only the page visit may have moved to the
                        // shared record.
                        assert_eq!(
                            counters_but_pages(&got.stats),
                            counters_but_pages(&want.stats),
                            "{at}/{name}: counters of plan {i}"
                        );
                    }
                    assert!(
                        report.merged_stats().pages_scanned
                            <= sequential.merged_stats().pages_scanned,
                        "{at}/{name}: fusion added page visits"
                    );
                    if strategy == BatchStrategy::Auto {
                        let ranges = batch
                            .iter()
                            .filter(|query| matches!(query, Query::Range { .. }))
                            .count();
                        if index.range_batch_kernel().is_some() && ranges >= 2 {
                            assert_eq!(report.fused_queries, ranges, "{at}/{name}");
                        }
                    }
                    // The fused strategies, Auto included, all take the one
                    // route: per-plan counters are shard-count-invariant,
                    // page visits included.
                    for (i, (got, want)) in report.reports.iter().zip(&fused.reports).enumerate() {
                        assert_eq!(
                            counters(&got.stats),
                            counters(&want.stats),
                            "{at}/{name}: plan {i} differs from the one-shard run"
                        );
                    }
                    let shared = counters(&report.shared_stats);
                    let one_shard = counters(&fused.shared_stats);
                    if name == "parallel/1" {
                        assert_eq!(report.shards_used, fused.shards_used, "{at}");
                    }
                    assert_eq!(shared, one_shard, "{at}/{name}: shared counters");
                    // Determinism across repeated runs: thread scheduling
                    // must never leak into outputs or counters.
                    let again = run(index, strategy, batch);
                    assert_eq!(
                        counters(&again.shared_stats),
                        shared,
                        "{at}/{name}: nondeterministic shared counters"
                    );
                    for (a, b) in report.reports.iter().zip(&again.reports) {
                        assert_eq!(a.output, b.output, "{at}/{name}: nondeterminism");
                        assert_eq!(counters(&a.stats), counters(&b.stats), "{at}/{name}");
                    }
                }
            }
        }
    }
}

/// The mixed-batch fusion property: for **all nine index kinds**, fused,
/// fused-parallel and cost-based auto execution of a heterogeneous batch — ranges in all three
/// modes, point probes and kNN plans, spiced with the edge cases the fused
/// kernels must not trip over (k = 0, duplicate probe points, probes and
/// kNN centres outside `data_bounds`, k larger than the index) — produces
/// outputs and result counts identical to the sequential loop, and the
/// per-plan-type fused counters account for exactly the plans each kernel
/// took.
#[test]
fn fused_mixed_batches_match_sequential_for_every_index() {
    let region = Region::NewYork;
    let points = generate_dataset(region, 5_000);
    let train = generate_queries(region, 150, SELECTIVITIES[1]);
    let mut batch = generate_mixed_batch(region, 160, SELECTIVITIES[2], 0xF0CA);
    // Edge plans: trivial kNN, oversized k, duplicate probes (one an
    // indexed point, one a guaranteed miss), geometry outside the data
    // space. All finite, hence valid.
    let dup_hit = points[42];
    let dup_miss = Point::new(0.123_456_789, 0.987_654_321);
    batch.extend([
        wazi_core::Query::knn(Point::new(0.4, 0.4), 0),
        wazi_core::Query::knn(Point::new(0.6, 0.6), 10_000),
        wazi_core::Query::knn(Point::new(7.0, -3.0), 3),
        wazi_core::Query::point(dup_hit),
        wazi_core::Query::point(dup_hit),
        wazi_core::Query::point(dup_miss),
        wazi_core::Query::point(dup_miss),
        wazi_core::Query::point(Point::new(4.0, 4.0)),
        wazi_core::Query::range_count(Rect::from_coords(2.0, 2.0, 3.0, 3.0)),
        // Rectangles large enough to contain whole leaves, one per range
        // mode: the pages inside them take the storage layer's whole-page
        // branch, the pages on their rim the filtered one.
        wazi_core::Query::range(Rect::from_coords(0.1, 0.1, 0.9, 0.9)),
        wazi_core::Query::range_count(Rect::from_coords(0.0, 0.0, 0.6, 1.0)),
        wazi_core::Query::range_stream(Rect::from_coords(0.3, 0.0, 1.0, 0.7)),
    ]);
    let ranges = batch.iter().filter(|q| q.is_range()).count();
    let probes = batch
        .iter()
        .filter(|q| matches!(q, wazi_core::Query::Point(_)))
        .count();
    let knns = batch.len() - ranges - probes;

    for kind in all_kinds() {
        let built = build_index(kind, &points, &train, 128);
        let sequential = QueryEngine::new(built.index.as_ref())
            .with_strategy(BatchStrategy::Sequential)
            .execute_batch(&batch)
            .expect("sequential batch executes");
        assert_eq!(sequential.total_fused(), 0, "{kind}");
        assert_eq!(
            sequential.strategy_chosen.iter().count(),
            0,
            "{kind}: fixed strategies record no decisions"
        );
        let has_kernel = built.index.range_batch_kernel().is_some();
        for (label, strategy) in [
            ("fused", BatchStrategy::Fused),
            (
                "fused-parallel/2",
                BatchStrategy::FusedParallel { shards: 2 },
            ),
            (
                "fused-parallel/4",
                BatchStrategy::FusedParallel { shards: 4 },
            ),
            ("auto", BatchStrategy::Auto),
        ] {
            let report = QueryEngine::new(built.index.as_ref())
                .with_strategy(strategy)
                .execute_batch(&batch)
                .expect("fused batch executes");
            assert_eq!(report.len(), sequential.len(), "{kind}/{label}");
            for (i, (got, want)) in report.reports.iter().zip(&sequential.reports).enumerate() {
                assert_eq!(
                    got.output, want.output,
                    "{kind}/{label}: output {i} differs from sequential"
                );
            }
            assert_eq!(
                report.total_results(),
                sequential.total_results(),
                "{kind}/{label}: result counts diverge"
            );
            // Counter equality across the whole mix: every fused kernel —
            // range scan, unit-grouped probes, kNN rings — must replicate
            // each plan's solo walk exactly; only page visits may be
            // shared, never added.
            let fused_totals = report.merged_stats();
            let sequential_totals = sequential.merged_stats();
            for (counter, a, b) in [
                ("results", fused_totals.results, sequential_totals.results),
                (
                    "points_scanned",
                    fused_totals.points_scanned,
                    sequential_totals.points_scanned,
                ),
                (
                    "bbs_checked",
                    fused_totals.bbs_checked,
                    sequential_totals.bbs_checked,
                ),
                (
                    "nodes_visited",
                    fused_totals.nodes_visited,
                    sequential_totals.nodes_visited,
                ),
                (
                    "leaves_skipped",
                    fused_totals.leaves_skipped,
                    sequential_totals.leaves_skipped,
                ),
            ] {
                assert_eq!(a, b, "{kind}/{label}: merged {counter} diverges");
            }
            assert!(
                fused_totals.pages_scanned <= sequential_totals.pages_scanned,
                "{kind}/{label}: fusion added page visits"
            );
            if kind == IndexKind::Zpgm {
                // No kernel, so nothing to decide or fuse: every strategy is
                // the per-query loop, counter for counter.
                assert_eq!(
                    report.strategy_chosen.iter().count(),
                    0,
                    "{kind}/{label}: decisions recorded"
                );
                assert_eq!(report.total_fused(), 0, "{kind}/{label}");
                for (i, (got, want)) in report.reports.iter().zip(&sequential.reports).enumerate() {
                    assert_eq!(
                        counters(&got.stats),
                        counters(&want.stats),
                        "{kind}/{label}: counters of plan {i}"
                    );
                }
            }
            if strategy == BatchStrategy::Auto {
                // Auto decides per partition, so fused counts depend on
                // what it chose — but the choice itself must be on record
                // wherever a kernel gave it one.
                if has_kernel {
                    assert!(
                        report.strategy_chosen.range.is_some(),
                        "{kind}/{label}: no range decision recorded"
                    );
                }
            } else {
                // The per-plan-type fused counters account for exactly the
                // partitions the index's kernels can take under a fixed
                // fused strategy.
                assert_eq!(
                    report.fused_queries,
                    if has_kernel { ranges } else { 0 },
                    "{kind}/{label}"
                );
                assert_eq!(
                    report.fused_points,
                    if has_kernel { probes } else { 0 },
                    "{kind}/{label}"
                );
                assert_eq!(
                    report.fused_knn,
                    if has_kernel { knns } else { 0 },
                    "{kind}/{label}"
                );
            }
        }
    }
}

/// The fused kernels must not trip over degenerate index shapes: an empty
/// index, a single-leaf tree (fewer points than one page) and an index of
/// all-duplicate points (one leaf MBR collapsed to a point; hot-key probes
/// all landing in one group). For every index kind and every strategy —
/// the cost-based Auto default included — outputs and work counters must
/// match the sequential loop on a batch spiced with plans that hit, miss
/// and straddle the degenerate geometry.
#[test]
fn fused_kernels_handle_degenerate_indexes() {
    let duplicate = Point::new(0.25, 0.75);
    let datasets: Vec<(&str, Vec<Point>)> = vec![
        ("empty", Vec::new()),
        (
            "single-leaf",
            vec![Point::new(0.4, 0.6), Point::new(0.42, 0.58)],
        ),
        ("all-duplicates", vec![duplicate; 300]),
    ];
    let train = generate_queries(Region::NewYork, 40, SELECTIVITIES[1]);
    let batch = vec![
        wazi_core::Query::range(Rect::from_coords(0.0, 0.0, 1.0, 1.0)),
        wazi_core::Query::range(Rect::from_coords(0.2, 0.5, 0.45, 0.8)),
        wazi_core::Query::range_count(Rect::from_coords(0.2, 0.5, 0.45, 0.8)),
        wazi_core::Query::range_count(Rect::from_coords(0.9, 0.9, 0.95, 0.95)),
        wazi_core::Query::range_count(Rect::from_coords(2.0, 2.0, 3.0, 3.0)),
        wazi_core::Query::point(duplicate),
        wazi_core::Query::point(duplicate),
        wazi_core::Query::point(Point::new(0.4, 0.6)),
        wazi_core::Query::point(Point::new(5.0, -5.0)),
        wazi_core::Query::knn(duplicate, 3),
        wazi_core::Query::knn(Point::new(0.5, 0.5), 2),
        wazi_core::Query::knn(Point::new(0.5, 0.5), 0),
    ];
    for (label, points) in &datasets {
        for kind in all_kinds() {
            let built = build_index(kind, points, &train, 32);
            let sequential = QueryEngine::new(built.index.as_ref())
                .with_strategy(BatchStrategy::Sequential)
                .execute_batch(&batch)
                .expect("sequential batch executes");
            for (strategy_label, strategy) in [
                ("fused", BatchStrategy::Fused),
                (
                    "fused-parallel/2",
                    BatchStrategy::FusedParallel { shards: 2 },
                ),
                (
                    "fused-parallel/4",
                    BatchStrategy::FusedParallel { shards: 4 },
                ),
                ("auto", BatchStrategy::Auto),
            ] {
                let report = QueryEngine::new(built.index.as_ref())
                    .with_strategy(strategy)
                    .execute_batch(&batch)
                    .expect("fused batch executes");
                for (i, (got, want)) in report.reports.iter().zip(&sequential.reports).enumerate() {
                    assert_eq!(
                        got.output, want.output,
                        "{kind}/{label}/{strategy_label}: output {i} differs"
                    );
                }
                let fused_totals = report.merged_stats();
                let sequential_totals = sequential.merged_stats();
                assert_eq!(
                    fused_totals.results, sequential_totals.results,
                    "{kind}/{label}/{strategy_label}: results diverge"
                );
                assert_eq!(
                    fused_totals.points_scanned, sequential_totals.points_scanned,
                    "{kind}/{label}/{strategy_label}: points_scanned diverges"
                );
                assert_eq!(
                    fused_totals.bbs_checked, sequential_totals.bbs_checked,
                    "{kind}/{label}/{strategy_label}: bbs_checked diverges"
                );
                assert!(
                    fused_totals.pages_scanned <= sequential_totals.pages_scanned,
                    "{kind}/{label}/{strategy_label}: fusion added page visits"
                );
            }
        }
    }
}

/// Random rectangles on a fixed dataset: WaZI, Base and STR agree with
/// brute force (and hence with each other).
#[test]
fn random_rectangles_are_answered_identically() {
    let mut rng = StdRng::seed_from_u64(16);
    let region = Region::NewYork;
    let points = generate_dataset(region, 3_000);
    let train = generate_queries(region, 100, SELECTIVITIES[1]);
    let indexes: Vec<_> = [IndexKind::Wazi, IndexKind::Base, IndexKind::Str]
        .into_iter()
        .map(|kind| build_index(kind, &points, &train, 128))
        .collect();
    for _ in 0..16 {
        let x0 = rng.gen::<f64>();
        let y0 = rng.gen::<f64>();
        let w = rng.gen_range(0.0f64..0.5);
        let h = rng.gen_range(0.0f64..0.5);
        let query = Rect::from_coords(x0, y0, (x0 + w).min(1.0), (y0 + h).min(1.0));
        let expected = sorted(
            points
                .iter()
                .copied()
                .filter(|p| query.contains(p))
                .collect(),
        );
        for built in &indexes {
            let mut stats = ExecStats::default();
            let got = sorted(built.index.range_query(&query, &mut stats));
            assert_eq!(got, expected, "{} disagrees", built.kind);
        }
    }
}
