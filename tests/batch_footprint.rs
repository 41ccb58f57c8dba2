//! Cross-crate integration test: what a solo range query answers and
//! charges, the footprint summed from a range batch's walk record
//! (`WalkRecord::footprint`), and the cost model that prices it.
//!
//! A solo range query is the kernel's walk replayed, so the footprint and
//! the per-query loop agree by construction; what pins the walks
//! themselves is the golden digest of every index kind's solo outputs and
//! Eq. 5 counters, recorded while each index still ran a hand-written scan
//! of its own. The footprint's distinct pages must equal the fused scan's
//! shared page visits, and the golden decision table pins every choice
//! Auto makes on the test batches.

use wazi_bench::{build_index, IndexKind};
use wazi_core::engine::cost::{KNN_PARALLEL_MIN, POINT_PARALLEL_MIN};
use wazi_core::{
    decide_knn_strategy, decide_point_strategy, decide_range_strategy, BatchStrategy,
    ChosenStrategy, CostConstants, Query, QueryEngine, RangeBatchRequest, RangeMode, Snapshot,
    SpatialIndex, VersionedIndex, WriteOp, ZIndex,
};
use wazi_geom::{Point, Rect};
use wazi_workload::{
    generate_dataset, generate_dataset_with_seed, generate_mixed_batch, generate_overlapping_batch,
    generate_queries, generate_scattered_batch, Region, SELECTIVITIES,
};

const REGION: Region = Region::NewYork;

/// Every index kind that advertises a fused range kernel.
const KERNEL_KINDS: [IndexKind; 8] = [
    IndexKind::Wazi,
    IndexKind::WaziNoSkip,
    IndexKind::BaseSkip,
    IndexKind::Base,
    IndexKind::Str,
    IndexKind::Cur,
    IndexKind::Flood,
    IndexKind::Quasii,
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

/// The kernel requests of `batch`, which holds range plans only.
fn range_requests(batch: &[Query]) -> Vec<RangeBatchRequest> {
    batch
        .iter()
        .map(|query| match query {
            Query::Range { rect, mode } => RangeBatchRequest {
                rect: *rect,
                collect: *mode == RangeMode::Collect,
            },
            other => panic!("not a range plan: {other:?}"),
        })
        .collect()
}

/// Asserts the footprint of `batch` on `index` against the Sequential
/// run's per-query counters and the Fused run's shared page visits.
fn assert_footprint_is_the_walk(label: &str, index: &dyn SpatialIndex, batch: &[Query]) {
    let kernel = index.range_batch_kernel().expect("a fused range kernel");
    let requests = range_requests(batch);
    assert!(requests.len() >= 2, "{label}: a batch fuses from two plans");
    let record = kernel.walk(&requests);
    let footprint = record.footprint();

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
    // Every run is its request's page visits, and the walk charged each
    // request exactly its solo walk's checks.
    assert_eq!(footprint.requests, batch.len(), "{label}");
    for (i, report) in sequential.reports.iter().enumerate() {
        assert_eq!(
            record.run(i).len() as u64,
            report.stats.pages_scanned,
            "{label}: run {i}"
        );
        assert_eq!(
            record.per_query[i].bbs_checked, report.stats.bbs_checked,
            "{label}: checks of request {i}"
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

/// The footprint against both schedules, for every kernel — the Z-indexes
/// (with and without skipping), the packed R-trees, Flood and QUASII — and
/// a snapshot after update bursts. Its page visits and checks equal the
/// sequential run's summed counters by construction now (the per-query loop
/// replays the same walk); its points hold the walk's leaf counts against
/// the pages the replay reads, and its distinct pages the fused scan's
/// shared visits.
#[test]
fn footprint_equals_what_the_walks_charge() {
    let points = generate_dataset(REGION, 20_000);
    let train = generate_queries(REGION, 200, SELECTIVITIES[1]);
    let batches = batches(&points);
    for kind in KERNEL_KINDS {
        let built = build_index(kind, &points, &train, 64);
        for (name, batch) in &batches {
            assert_footprint_is_the_walk(&format!("{kind}/{name}"), built.index.as_ref(), batch);
        }
    }
    let snapshot = post_burst_snapshot(&points, &train);
    for (name, batch) in &batches {
        assert_footprint_is_the_walk(&format!("snapshot/{name}"), &snapshot, batch);
    }
}

/// A WaZI snapshot after insert and delete bursts: leaf counts, boxes and
/// look-ahead pointers have all moved since the build.
fn post_burst_snapshot(points: &[Point], train: &[Rect]) -> Snapshot {
    let versioned = VersionedIndex::new(ZIndex::build_wazi(points.to_vec(), train));
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
    snapshot
}

/// FNV-1a over the little-endian bytes of `words`, continuing `hash`.
fn fnv1a(mut hash: u64, words: impl IntoIterator<Item = u64>) -> u64 {
    for word in words {
        for byte in word.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Every plan of `batches` run solo through `QueryEngine::execute`, folded
/// into one digest: the output (points in order, or the count) and the
/// work counters. Timing stays out.
fn solo_digest(index: &dyn SpatialIndex, batches: &[(&str, Vec<Query>)]) -> u64 {
    let engine = QueryEngine::new(index);
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for query in batches.iter().flat_map(|(_, batch)| batch) {
        let report = engine.execute(query).unwrap();
        hash = fnv1a(hash, [report.output.result_count()]);
        if let Some(points) = report.output.points() {
            hash = fnv1a(
                hash,
                points.iter().flat_map(|p| [p.x.to_bits(), p.y.to_bits()]),
            );
        }
        let stats = report.stats;
        hash = fnv1a(
            hash,
            [
                stats.nodes_visited,
                stats.bbs_checked,
                stats.leaves_skipped,
                stats.pages_scanned,
                stats.points_scanned,
                stats.results,
            ],
        );
    }
    hash
}

/// The solo digests of every index kind and of the post-burst snapshot.
const GOLDEN_SOLO_DIGESTS: &[(&str, u64)] = &[
    ("WaZI", 0xaaba_3077_7346_943f),
    ("WaZI-SK", 0xd308_4208_4bd1_ed2c),
    ("Base+SK", 0x3d4b_afb4_1bdf_1bee),
    ("Base", 0xf154_250c_c186_601c),
    ("STR", 0xab50_794c_b824_cce4),
    ("CUR", 0x6561_4071_8471_39eb),
    ("Flood", 0x44f0_1e7e_f338_6b91),
    ("QUASII", 0x1bc6_9639_be9d_066a),
    ("Zpgm", 0x703c_042b_6813_d505),
    ("snapshot", 0x508c_3ed0_a0b4_5ca1),
];

/// What a solo range query answers and charges, pinned per index: the
/// digests were recorded while each index still ran its own hand-written
/// scan, so a solo path rebuilt on the kernel's walk must reproduce them bit
/// for bit.
#[test]
fn solo_walks_are_pinned_by_golden_counter_digests() {
    let points = generate_dataset(REGION, 20_000);
    let train = generate_queries(REGION, 200, SELECTIVITIES[1]);
    let batches = batches(&points);
    let mut got: Vec<(String, u64)> = KERNEL_KINDS
        .iter()
        .chain([&IndexKind::Zpgm])
        .map(|&kind| {
            let built = build_index(kind, &points, &train, 64);
            (
                kind.to_string(),
                solo_digest(built.index.as_ref(), &batches),
            )
        })
        .collect();
    let snapshot = post_burst_snapshot(&points, &train);
    got.push(("snapshot".to_string(), solo_digest(&snapshot, &batches)));
    let golden: Vec<(String, u64)> = GOLDEN_SOLO_DIGESTS
        .iter()
        .map(|&(name, digest)| (name.to_string(), digest))
        .collect();
    assert!(
        got == golden,
        "the solo digests moved; they now read:\n{got:#x?}"
    );
}

/// The decision boundaries on footprint stats, with no clock read: a
/// scattered batch of 64 ranges has nothing for threads to split, so the
/// model never picks the parallel scan for it, while a heavily
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
        let stats = kernel.walk(&requests).footprint();
        decide_range_strategy(&stats, workers, &CostConstants::BAKED).0
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

/// One decision as a table cell: `S`equential, `F`used, `P<shards>`.
fn cell(chosen: ChosenStrategy) -> String {
    match chosen {
        ChosenStrategy::Sequential => "S".to_string(),
        ChosenStrategy::Fused => "F".to_string(),
        ChosenStrategy::FusedParallel { shards } => format!("P{shards}"),
    }
}

/// The golden decision table: for each kernel-bearing kind and batch
/// shape, Auto's range choice at seeds 0–3, each at 1, 2 and 8 workers;
/// then the point and kNN rules on both sides of their parallel
/// thresholds at 1, 2 and 8 workers.
const GOLDEN_DECISIONS: &[&str] = &[
    "WaZI/overlapping: F P2 P4 F P2 P4 F P2 P4 F P2 P4",
    "WaZI/scattered: S S S S S S S S S S S S",
    "WaZI/mixed: F F F F F F F F F F F F",
    "WaZI-SK/overlapping: F P2 P4 F P2 P4 F P2 P4 F P2 P4",
    "WaZI-SK/scattered: S S S S S S S S S S S S",
    "WaZI-SK/mixed: F F F F F F F F F F F F",
    "Base+SK/overlapping: F P2 P4 F P2 P4 F P2 P4 F P2 P4",
    "Base+SK/scattered: S S S S S S S S S S S S",
    "Base+SK/mixed: F F F F F F F F F F F F",
    "Base/overlapping: F P2 P4 F P2 P4 F P2 P4 F P2 P4",
    "Base/scattered: S S S S S S S S S S S S",
    "Base/mixed: F F F F F F F F F F F F",
    "STR/overlapping: F P2 P4 F P2 P4 F P2 P4 F P2 P4",
    "STR/scattered: S S S S S S S S S S S S",
    "STR/mixed: F F F F F F F F F F F F",
    "CUR/overlapping: F P2 P4 F P2 P4 F P2 P4 F P2 P4",
    "CUR/scattered: S S S S S S S S S S S S",
    "CUR/mixed: F F F F F F F F F F F F",
    "Flood/overlapping: F P2 P2 F P2 P2 F P2 P2 F P2 P2",
    "Flood/scattered: S S S S S S S S S S S S",
    "Flood/mixed: F F F F F F F F F F F F",
    "QUASII/overlapping: F P2 P4 F P2 P4 F P2 P4 F P2 P4",
    "QUASII/scattered: S S S S S S S S S S S S",
    "QUASII/mixed: F P2 P2 F P2 P2 F P2 P2 F P2 P4",
    "point/2047: F F F",
    "point/2048: F P2 P8",
    "knn/255: F F F",
    "knn/256: F P2 P8",
];

/// Auto's choices, pinned without a clock. Given a footprint, the baked
/// constants and a worker count, the cost model is a pure function, so a
/// change that claims "Auto's choices did not move" must leave this table
/// alone; one that retunes the model updates it on purpose.
#[test]
fn auto_decisions_are_pinned_by_a_golden_table() {
    let points = generate_dataset(REGION, 20_000);
    let train = generate_queries(REGION, 200, SELECTIVITIES[1]);
    let seeds = 0..4;
    let shapes: [(&str, Vec<Vec<Query>>); 3] = [
        (
            "overlapping",
            seeds
                .clone()
                .map(|seed| generate_overlapping_batch(REGION, 256, SELECTIVITIES[3], seed))
                .collect(),
        ),
        (
            "scattered",
            seeds
                .clone()
                .map(|seed| generate_scattered_batch(REGION, 64, SELECTIVITIES[0], seed))
                .collect(),
        ),
        (
            "mixed",
            seeds
                .map(|seed| ranges(generate_mixed_batch(REGION, 256, SELECTIVITIES[1], seed)))
                .collect(),
        ),
    ];
    let mut got = Vec::new();
    for kind in KERNEL_KINDS {
        let built = build_index(kind, &points, &train, 64);
        let kernel = built
            .index
            .range_batch_kernel()
            .expect("a fused range kernel");
        for (shape, batches) in &shapes {
            let cells: Vec<String> = batches
                .iter()
                .flat_map(|batch| {
                    let requests = range_requests(batch);
                    let stats = kernel.walk(&requests).footprint();
                    [1, 2, 8].map(|workers| {
                        cell(decide_range_strategy(&stats, workers, &CostConstants::BAKED).0)
                    })
                })
                .collect();
            got.push(format!("{kind}/{shape}: {}", cells.join(" ")));
        }
    }
    for n in [POINT_PARALLEL_MIN - 1, POINT_PARALLEL_MIN] {
        let cells = [1, 2, 8].map(|workers| cell(decide_point_strategy(n, workers)));
        got.push(format!("point/{n}: {}", cells.join(" ")));
    }
    for n in [KNN_PARALLEL_MIN - 1, KNN_PARALLEL_MIN] {
        let cells = [1, 2, 8].map(|workers| cell(decide_knn_strategy(n, workers)));
        got.push(format!("knn/{n}: {}", cells.join(" ")));
    }
    assert!(
        got == GOLDEN_DECISIONS,
        "Auto's decisions moved; the table now reads:\n{got:#?}"
    );
}
