//! Cross-crate integration test: a range kernel's walk footprint
//! (`RangeBatchKernel::footprint`) is what the walks actually charge, and
//! the cost model that prices it sends batches to the right side of its
//! decision boundaries.
//!
//! The footprint is computed without charging anything, so nothing but
//! these tests ties it to the kernels' counters. For the kernels that walk
//! exactly — the Z-indexes (with and without skipping) and the packed
//! R-trees — its page visits, points and checks must equal the sequential
//! run's summed per-query counters, and its distinct pages the single fused
//! sweep's shared page visits.

use wazi_bench::{build_index, IndexKind};
use wazi_core::{
    decide_range_strategy, BatchStrategy, CalibrationTable, ChosenStrategy, KernelClass, Query,
    QueryEngine, RangeBatchRequest, RangeMode, SpatialIndex, VersionedIndex, WriteOp, ZIndex,
};
use wazi_geom::{Point, Rect};
use wazi_workload::{
    generate_dataset, generate_dataset_with_seed, generate_mixed_batch, generate_overlapping_batch,
    generate_queries, generate_scattered_batch, Region, SELECTIVITIES,
};

const REGION: Region = Region::NewYork;

/// The kernels whose footprint is exact.
const EXACT_KINDS: [IndexKind; 5] = [
    IndexKind::Wazi,
    IndexKind::WaziNoSkip,
    IndexKind::Base,
    IndexKind::Str,
    IndexKind::Cur,
];

/// The range plans of `batch`.
fn ranges(batch: Vec<Query>) -> Vec<Query> {
    batch
        .into_iter()
        .filter(|query| matches!(query, Query::Range { .. }))
        .collect()
}

/// The batches every kernel is checked on: scattered, overlapping, mixed
/// range modes, ranges over no data, and ranges inside one leaf.
fn batches(points: &[Point]) -> Vec<(&'static str, Vec<Query>)> {
    let anchor = points[points.len() / 2];
    vec![
        (
            "scattered",
            generate_scattered_batch(REGION, 64, SELECTIVITIES[0], 11),
        ),
        (
            "overlapping",
            generate_overlapping_batch(REGION, 96, SELECTIVITIES[2], 12),
        ),
        (
            "mixed",
            ranges(generate_mixed_batch(REGION, 120, SELECTIVITIES[1], 13)),
        ),
        (
            "empty",
            vec![
                Query::range_count(Rect::from_coords(1.2, 1.2, 1.3, 1.3)),
                Query::range(Rect::from_coords(-0.5, -0.5, -0.4, -0.4)),
                Query::range_stream(Rect::from_coords(1.5, -0.2, 1.6, -0.1)),
            ],
        ),
        (
            "one-leaf",
            (1..=4)
                .map(|k| {
                    let d = k as f64 * 1e-7;
                    let rect =
                        Rect::from_coords(anchor.x - d, anchor.y - d, anchor.x + d, anchor.y + d);
                    if k % 2 == 0 {
                        Query::range(rect)
                    } else {
                        Query::range_count(rect)
                    }
                })
                .collect(),
        ),
    ]
}

/// Asserts the footprint of `batch` on `index` against the Sequential
/// run's per-query counters and the Fused run's shared page visits.
fn assert_footprint_is_the_walk(label: &str, index: &dyn SpatialIndex, batch: &[Query]) {
    let kernel = index.range_batch_kernel().expect("a fused range kernel");
    let requests: Vec<RangeBatchRequest> = batch
        .iter()
        .map(|query| match query {
            Query::Range { rect, mode } => RangeBatchRequest {
                rect: *rect,
                collect: *mode == RangeMode::Collect,
            },
            other => panic!("{label}: not a range plan: {other:?}"),
        })
        .collect();
    assert!(requests.len() >= 2, "{label}: a batch fuses from two plans");
    let footprint = kernel.footprint(&requests, &kernel.project_batch(&requests));

    let sequential = QueryEngine::new(index)
        .with_strategy(BatchStrategy::Sequential)
        .execute_batch(batch)
        .unwrap();
    let total = sequential.merged_stats();
    assert_eq!(
        footprint.page_visits, total.pages_scanned,
        "{label}: page visits"
    );
    assert_eq!(footprint.points, total.points_scanned, "{label}: points");
    assert_eq!(footprint.checks, total.bbs_checked, "{label}: checks");
    // Every planner weight covers at least its request's walk.
    assert_eq!(footprint.requests(), batch.len(), "{label}");
    for (weight, report) in footprint.per_request.iter().zip(&sequential.reports) {
        let walk = report.stats.bbs_checked + report.stats.points_scanned;
        assert!(
            *weight >= walk,
            "{label}: weight {weight} under the walk's {walk}"
        );
    }

    let fused = QueryEngine::new(index)
        .with_strategy(BatchStrategy::Fused)
        .execute_batch(batch)
        .unwrap();
    assert_eq!(fused.fused_queries, batch.len(), "{label}");
    assert_eq!(
        footprint.distinct_pages, fused.range_shared_stats.pages_scanned,
        "{label}: distinct pages"
    );
}

#[test]
fn footprint_equals_what_the_walks_charge() {
    let points = generate_dataset(REGION, 20_000);
    let train = generate_queries(REGION, 200, SELECTIVITIES[1]);
    let batches = batches(&points);
    for kind in EXACT_KINDS {
        let built = build_index(kind, &points, &train, 64);
        for (name, batch) in &batches {
            assert_footprint_is_the_walk(&format!("{kind}/{name}"), built.index.as_ref(), batch);
        }
    }

    // A snapshot after insert and delete bursts: leaf counts, boxes and
    // look-ahead pointers have all moved since the build.
    let versioned = VersionedIndex::new(ZIndex::build_wazi(points.clone(), &train));
    let fresh = generate_dataset_with_seed(REGION, 3_000, 0xF00D);
    for (i, burst) in fresh.chunks(1_000).enumerate() {
        let inserts: Vec<WriteOp> = burst.iter().copied().map(WriteOp::Insert).collect();
        versioned.apply(&inserts).unwrap();
        // A third of the fresh points and a disjoint fiftieth of the
        // originals per burst.
        let deletes: Vec<WriteOp> = burst
            .iter()
            .step_by(3)
            .chain(points.iter().skip(i).step_by(50))
            .copied()
            .map(WriteOp::Delete)
            .collect();
        versioned.apply(&deletes).unwrap();
    }
    let snapshot = versioned.snapshot();
    assert_eq!(snapshot.len(), points.len() + 3_000 - 3 * 334 - 3 * 400);
    for (name, batch) in &batches {
        assert_footprint_is_the_walk(&format!("snapshot/{name}"), &snapshot, batch);
    }
}

/// The decision boundaries on footprint stats, with no clock read: a
/// scattered batch of 64 ranges has nothing for threads to split, so the
/// model never picks the parallel sweep for it, while a heavily
/// overlapping batch still fuses. At 200 k points the Z-intervals are long
/// enough that pricing every address under them as a fetch (the
/// statistics the footprint replaced) sends some of these batches to
/// threads; at 50 k points it does not.
#[test]
fn footprint_stats_keep_scattered_batches_off_threads() {
    let points = generate_dataset(REGION, 200_000);
    let train = generate_queries(REGION, 200, SELECTIVITIES[0]);
    let built = build_index(IndexKind::Wazi, &points, &train, 256);
    let kernel = built.index.range_batch_kernel().expect("WaZI fuses");
    let decide = |batch: &[Query], workers: usize| {
        let requests: Vec<RangeBatchRequest> = batch
            .iter()
            .map(|query| match query {
                Query::Range { rect, .. } => RangeBatchRequest {
                    rect: *rect,
                    collect: false,
                },
                other => panic!("not a range plan: {other:?}"),
            })
            .collect();
        let stats = kernel.footprint(&requests, &kernel.project_batch(&requests));
        let table = &CalibrationTable::BAKED;
        decide_range_strategy(KernelClass::PageBacked, &stats, workers, table).0
    };
    for seed in 0..8 {
        let scattered = generate_scattered_batch(REGION, 64, SELECTIVITIES[0], seed);
        for workers in [2, 8] {
            let chosen = decide(&scattered, workers);
            assert!(
                !matches!(chosen, ChosenStrategy::FusedParallel { .. }),
                "seed {seed}, {workers} workers: a scattered batch chose {chosen}"
            );
        }
        let overlapping = generate_overlapping_batch(REGION, 512, SELECTIVITIES[3], seed);
        for workers in [1, 2, 8] {
            let chosen = decide(&overlapping, workers);
            assert_ne!(
                chosen,
                ChosenStrategy::Sequential,
                "seed {seed}, {workers} workers: an overlapping batch stopped fusing"
            );
        }
    }
}
