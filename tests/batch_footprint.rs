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
//! Auto makes on the test batches. Golden kNN digests pin, in two
//! halves, every kind's neighbour lists, ties included, and the counters of
//! its solo doubling loop and of the fused ring sweep.

use wazi_bench::{build_index, IndexKind};
use wazi_core::{
    decide_range_strategy, BatchStrategy, ChosenStrategy, CostConstants, Query, QueryEngine,
    QueryReport, RangeBatchRequest, RangeMode, Snapshot, SpatialIndex, VersionedIndex, WriteOp,
    ZIndex,
};
use wazi_geom::{Point, Rect};
use wazi_storage::ExecStats;
use wazi_workload::{
    generate_dataset, generate_dataset_with_seed, generate_knn_batch, generate_mixed_batch,
    generate_overlapping_batch, generate_queries, generate_scattered_batch, Region, SELECTIVITIES,
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

/// The six work counters of `stats`, folded into `hash`. Timing stays out.
fn fold_counters(hash: u64, stats: &ExecStats) -> u64 {
    fnv1a(
        hash,
        [
            stats.nodes_visited,
            stats.bbs_checked,
            stats.leaves_skipped,
            stats.pages_scanned,
            stats.points_scanned,
            stats.results,
        ],
    )
}

/// One answered plan's output folded into `hash`: the result count and,
/// when materialized, the points in order.
fn fold_output(mut hash: u64, report: &QueryReport) -> u64 {
    hash = fnv1a(hash, [report.output.result_count()]);
    if let Some(points) = report.output.points() {
        hash = fnv1a(
            hash,
            points.iter().flat_map(|p| [p.x.to_bits(), p.y.to_bits()]),
        );
    }
    hash
}

/// One answered plan folded into `hash`: the output and the work counters.
fn fold_report(hash: u64, report: &QueryReport) -> u64 {
    fold_counters(fold_output(hash, report), &report.stats)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Every plan of `batches` run solo through `QueryEngine::execute`, folded
/// into one digest.
fn solo_digest(index: &dyn SpatialIndex, batches: &[(&str, Vec<Query>)]) -> u64 {
    let engine = QueryEngine::new(index);
    batches
        .iter()
        .flat_map(|(_, batch)| batch)
        .fold(FNV_OFFSET, |hash, query| {
            fold_report(hash, &engine.execute(query).unwrap())
        })
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

/// A tie-heavy dataset of 20 000 points: a 100 × 100 lattice at spacing
/// 1/128, every node twice. Dyadic coordinates make distances from dyadic
/// centres exact, so equidistant neighbours tie bit for bit.
fn duplicated_lattice() -> Vec<Point> {
    let node = |i: usize| (14 + i) as f64 / 128.0;
    let lattice: Vec<Point> = (0..10_000)
        .map(|i| Point::new(node(i % 100), node(i / 100)))
        .collect();
    lattice.iter().chain(&lattice).copied().collect()
}

/// A centre astronomically far outside both datasets.
const FAR: Point = Point::new(3.0e8, -7.0e8);

/// The kNN plans run on the NewYork data: the benchmark's hot-spot centres
/// at k = 8, and one far centre.
fn region_knn_plans() -> Vec<Query> {
    let mut plans = generate_knn_batch(REGION, 48, 8, 17);
    plans.push(Query::knn(FAR, 8));
    plans
}

/// The kNN plans run on [`duplicated_lattice`] for an index of `len`
/// points: lattice nodes, cell centres and edge midpoints (four or eight
/// equidistant neighbours, each duplicated) at k ∈ {1, 8, 64}, two centres
/// asking for every point (`len + 1`), and one far centre.
fn lattice_knn_plans(len: usize) -> Vec<Query> {
    let centres = [
        (50.0, 50.0),
        (50.5, 50.5),
        (50.5, 50.0),
        (0.0, 0.0),
        (0.5, 99.5),
        (99.0, 0.5),
        (-3.0, 40.0),
        (37.25, 61.75),
    ]
    .map(|(i, j)| Point::new((14.0 + i) / 128.0, (14.0 + j) / 128.0));
    let mut plans: Vec<Query> = [1, 8, 64]
        .into_iter()
        .flat_map(|k| centres.map(|q| Query::knn(q, k)))
        .collect();
    plans.extend(centres[..2].iter().map(|&q| Query::knn(q, len + 1)));
    plans.push(Query::knn(FAR, 8));
    plans
}

/// The plans run solo through `QueryEngine::execute`, then as one batch
/// under `BatchStrategy::Fused` (the ring sweep, for kernel-bearing kinds),
/// folded into two digests: `answers` (every neighbour list in order, solo
/// then fused) and `counters` (every plan's work counters, solo then fused,
/// then the batch's shared kNN counters).
fn knn_digests(index: &dyn SpatialIndex, plans: &[Query]) -> KnnDigests {
    let solo = QueryEngine::new(index);
    let solo: Vec<QueryReport> = plans
        .iter()
        .map(|query| solo.execute(query).unwrap())
        .collect();
    let batch = QueryEngine::new(index)
        .with_strategy(BatchStrategy::Fused)
        .execute_batch(plans)
        .unwrap();
    let reports = solo.iter().chain(&batch.reports);
    let counters = reports.clone().fold(FNV_OFFSET, |hash, report| {
        fold_counters(hash, &report.stats)
    });
    KnnDigests {
        answers: reports.fold(FNV_OFFSET, fold_output),
        counters: fold_counters(counters, &batch.knn_shared_stats),
    }
}

/// What one index's kNN plans answer and what they charge, hashed apart so
/// a change to the work (a different first ring) can prove the answers
/// stayed put.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct KnnDigests {
    answers: u64,
    counters: u64,
}

/// The kNN digests of every index kind and of the post-burst snapshot, on
/// the NewYork data and on the duplicated lattice: `(row, answers,
/// counters)`. Every `answers` digest was recorded while every index still
/// started its rings at the uniform radius, so they pin that the Z-index's
/// density seed moved only work; its rows' and the snapshot's `counters`
/// were recorded with the seed.
#[rustfmt::skip]
const GOLDEN_KNN_DIGESTS: &[(&str, u64, u64)] = &[
    ("newyork/WaZI", 0x063d_e1fc_58af_5e61, 0x7afe_abbb_a2e0_0af9),
    ("newyork/WaZI-SK", 0x063d_e1fc_58af_5e61, 0xa291_02b4_3d65_5a00),
    ("newyork/Base+SK", 0x063d_e1fc_58af_5e61, 0x44f3_f82a_6acb_beeb),
    ("newyork/Base", 0x063d_e1fc_58af_5e61, 0xdd42_acbe_be42_604f),
    ("newyork/STR", 0x063d_e1fc_58af_5e61, 0x0d78_9de7_2dcf_db22),
    ("newyork/CUR", 0x063d_e1fc_58af_5e61, 0x94a5_7430_5cd8_bad2),
    ("newyork/Flood", 0x063d_e1fc_58af_5e61, 0x3411_6e48_e326_65c1),
    ("newyork/QUASII", 0x063d_e1fc_58af_5e61, 0x812b_3d33_6984_d88c),
    ("newyork/Zpgm", 0x063d_e1fc_58af_5e61, 0x4a73_b975_46f1_662d),
    ("newyork/snapshot", 0xd3e7_46c0_2da4_31f9, 0xc7ff_790f_3001_fed7),
    ("lattice/WaZI", 0x9663_8dc8_a736_30cd, 0x0148_84de_2f1e_6b4e),
    ("lattice/WaZI-SK", 0x9663_8dc8_a736_30cd, 0x5097_c87d_0008_f056),
    ("lattice/Base+SK", 0xf064_7d75_8409_85cd, 0x8758_9c6b_3658_c518),
    ("lattice/Base", 0xf064_7d75_8409_85cd, 0x0dc4_4539_e589_14b8),
    ("lattice/STR", 0x43a0_3646_5f47_0a35, 0x2fdf_fb9f_7482_73e2),
    ("lattice/CUR", 0xce8b_a27e_fbbe_26f5, 0x0f7b_b657_d77e_e515),
    ("lattice/Flood", 0x6207_8a23_9b3f_2555, 0x11a6_a791_93ba_a3fe),
    ("lattice/QUASII", 0x7194_c538_8f23_f845, 0xf6a1_67b7_2921_2c94),
    ("lattice/Zpgm", 0x3a65_7141_e124_1085, 0x57f3_c4c3_1102_66f5),
    ("lattice/snapshot", 0x64c9_2253_f978_43a9, 0xc94e_8f4d_a423_ecd0),
];

/// What kNN answers and charges, pinned per index: neighbour lists in
/// order, ties included, and the six counters of the solo loop and of the
/// fused ring sweep, each half in its own digest. How the k nearest are
/// kept may change; which points, in which order, may not. What the rings
/// charge moves only with the ring geometry, and then only in `counters`.
#[test]
fn knn_answers_are_pinned_by_golden_digests() {
    let train = generate_queries(REGION, 200, SELECTIVITIES[1]);
    let mut got: Vec<(String, KnnDigests)> = Vec::new();
    for (data, points) in [
        ("newyork", generate_dataset(REGION, 20_000)),
        ("lattice", duplicated_lattice()),
    ] {
        let plans = |len: usize| match data {
            "newyork" => region_knn_plans(),
            _ => lattice_knn_plans(len),
        };
        for &kind in KERNEL_KINDS.iter().chain([&IndexKind::Zpgm]) {
            let built = build_index(kind, &points, &train, 64);
            let index = built.index.as_ref();
            got.push((
                format!("{data}/{kind}"),
                knn_digests(index, &plans(index.len())),
            ));
        }
        let snapshot = post_burst_snapshot(&points, &train);
        let digests = knn_digests(&snapshot, &plans(snapshot.len()));
        got.push((format!("{data}/snapshot"), digests));
    }
    let golden: Vec<(String, KnnDigests)> = GOLDEN_KNN_DIGESTS
        .iter()
        .map(|&(name, answers, counters)| (name.to_string(), KnnDigests { answers, counters }))
        .collect();
    assert!(
        got == golden,
        "the kNN digests moved; they now read:\n{got:#x?}"
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
/// shape, Auto's range choice at seeds 0–3, each at 1, 2 and 8 workers.
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
    assert!(
        got == GOLDEN_DECISIONS,
        "Auto's decisions moved; the table now reads:\n{got:#?}"
    );
}

/// The probe batch every index is checked on: hits, eight copies of one
/// hot point, misses inside the data's bounding box (midpoints of two data
/// points) and misses outside it, interleaved so groups of probes sharing
/// a unit never arrive together.
fn probe_batch(points: &[Point]) -> Vec<Query> {
    let hot = points[points.len() / 3];
    let outside = [
        Point::new(1.5, 0.5),
        Point::new(-0.2, -0.3),
        Point::new(0.5, 2.0),
        FAR,
    ];
    let mut probes = Vec::new();
    for i in 0..24 {
        let at = i * 797 % points.len();
        probes.push(points[at]);
        if i % 3 == 0 {
            probes.push(hot);
        }
        if i % 2 == 0 {
            let (a, b) = (points[at], points[(at + 1) % points.len()]);
            probes.push(Point::new((a.x + b.x) / 2.0, (a.y + b.y) / 2.0));
        }
        if i % 6 == 0 {
            probes.push(outside[i / 6]);
        }
    }
    probes.into_iter().map(Query::point).collect()
}

/// Every probe of `batches` run solo, or each batch run under `strategy`,
/// folded into one digest: answers and per-probe counters, then each
/// batch's shared page visits.
fn point_digest(
    index: &dyn SpatialIndex,
    batches: &[Vec<Query>],
    strategy: Option<BatchStrategy>,
) -> u64 {
    let Some(strategy) = strategy else {
        return solo_digest(index, &[("probes", batches.concat())]);
    };
    let engine = QueryEngine::new(index).with_strategy(strategy);
    batches.iter().fold(FNV_OFFSET, |hash, batch| {
        let report = engine.execute_batch(batch).unwrap();
        let hash = report.reports.iter().fold(hash, fold_report);
        fnv1a(hash, [report.shared_stats.pages_scanned])
    })
}

/// The point digests of every index kind and of the post-burst snapshot,
/// one row per kind and run: each probe solo, then the batches under each
/// strategy. Recorded while probes still ran a batch protocol of their
/// own; the Flood and QUASII rows were re-pinned when a probe's first unit
/// became a charged visit like a range run's (their probes had charged
/// none), and every other row is unchanged.
const GOLDEN_POINT_DIGESTS: &[(&str, u64)] = &[
    ("WaZI/solo", 0xe148_050f_1aef_bbaf),
    ("WaZI/sequential", 0x3d71_23de_7931_9a0f),
    ("WaZI/fused", 0x7386_c3e4_e41e_78ae),
    ("WaZI/parallel/2", 0x7386_c3e4_e41e_78ae),
    ("WaZI/parallel/4", 0x7386_c3e4_e41e_78ae),
    ("WaZI-SK/solo", 0x7129_9097_ff82_d526),
    ("WaZI-SK/sequential", 0x20e0_bb75_5270_76a6),
    ("WaZI-SK/fused", 0x6528_7196_a328_aa47),
    ("WaZI-SK/parallel/2", 0x6528_7196_a328_aa47),
    ("WaZI-SK/parallel/4", 0x6528_7196_a328_aa47),
    ("Base+SK/solo", 0xc077_9cac_0a7c_a41a),
    ("Base+SK/sequential", 0x33b8_54bd_72dd_6b1a),
    ("Base+SK/fused", 0xd49a_b830_57be_057b),
    ("Base+SK/parallel/2", 0xd49a_b830_57be_057b),
    ("Base+SK/parallel/4", 0xd49a_b830_57be_057b),
    ("Base/solo", 0xc077_9cac_0a7c_a41a),
    ("Base/sequential", 0x33b8_54bd_72dd_6b1a),
    ("Base/fused", 0xd49a_b830_57be_057b),
    ("Base/parallel/2", 0xd49a_b830_57be_057b),
    ("Base/parallel/4", 0xd49a_b830_57be_057b),
    ("STR/solo", 0xf105_9620_c0c4_6a58),
    ("STR/sequential", 0x82ce_e0c7_b37a_7fd8),
    ("STR/fused", 0x0750_41f9_75c7_29fa),
    ("STR/parallel/2", 0x0750_41f9_75c7_29fa),
    ("STR/parallel/4", 0x0750_41f9_75c7_29fa),
    ("CUR/solo", 0x9013_ce41_fb7f_af58),
    ("CUR/sequential", 0xa8e7_cfd8_2965_7a98),
    ("CUR/fused", 0x28ab_2afa_2c27_577d),
    ("CUR/parallel/2", 0x28ab_2afa_2c27_577d),
    ("CUR/parallel/4", 0x28ab_2afa_2c27_577d),
    ("Flood/solo", 0x1dbd_f939_a70a_7a65),
    ("Flood/sequential", 0x24f7_80f1_3cf9_5a45),
    ("Flood/fused", 0x1cae_8547_7052_0a50),
    ("Flood/parallel/2", 0x1cae_8547_7052_0a50),
    ("Flood/parallel/4", 0x1cae_8547_7052_0a50),
    ("QUASII/solo", 0x6975_d412_56a2_bae2),
    ("QUASII/sequential", 0x8773_3690_34ea_f1e2),
    ("QUASII/fused", 0x72fe_9d2d_b2a6_c4bc),
    ("QUASII/parallel/2", 0x72fe_9d2d_b2a6_c4bc),
    ("QUASII/parallel/4", 0x72fe_9d2d_b2a6_c4bc),
    ("Zpgm/solo", 0x2813_0175_75a5_4144),
    ("Zpgm/sequential", 0xb1a1_cbfb_99ff_b304),
    ("Zpgm/fused", 0xb1a1_cbfb_99ff_b304),
    ("Zpgm/parallel/2", 0xb1a1_cbfb_99ff_b304),
    ("Zpgm/parallel/4", 0xb1a1_cbfb_99ff_b304),
    ("snapshot/solo", 0xcb4a_67f6_cfce_1112),
    ("snapshot/sequential", 0x9608_8775_1819_a9d2),
    ("snapshot/fused", 0x83e0_cbf2_9cab_6c72),
    ("snapshot/parallel/2", 0x83e0_cbf2_9cab_6c72),
    ("snapshot/parallel/4", 0x83e0_cbf2_9cab_6c72),
];

/// What point probes answer and charge, pinned per index and schedule:
/// solo, sequential, fused and sharded over two and four chunks, on a
/// batch of hits, hot duplicates and misses inside and outside the data,
/// on a batch of none and on a batch of one.
#[test]
fn point_batches_are_pinned_by_golden_counter_digests() {
    let points = generate_dataset(REGION, 20_000);
    let train = generate_queries(REGION, 200, SELECTIVITIES[1]);
    let probes = probe_batch(&points);
    let batches = vec![probes.clone(), Vec::new(), probes[..1].to_vec()];
    let runs: [(&str, Option<BatchStrategy>); 5] = [
        ("solo", None),
        ("sequential", Some(BatchStrategy::Sequential)),
        ("fused", Some(BatchStrategy::Fused)),
        (
            "parallel/2",
            Some(BatchStrategy::FusedParallel { shards: 2 }),
        ),
        (
            "parallel/4",
            Some(BatchStrategy::FusedParallel { shards: 4 }),
        ),
    ];
    let mut indexes: Vec<(String, Box<dyn SpatialIndex>)> = KERNEL_KINDS
        .iter()
        .chain([&IndexKind::Zpgm])
        .map(|&kind| {
            let built = build_index(kind, &points, &train, 64);
            (kind.to_string(), built.index)
        })
        .collect();
    indexes.push((
        "snapshot".to_string(),
        Box::new(post_burst_snapshot(&points, &train)),
    ));
    let mut got = Vec::new();
    for (name, index) in &indexes {
        for (run, strategy) in runs {
            let digest = point_digest(index.as_ref(), &batches, strategy);
            got.push((format!("{name}/{run}"), digest));
        }
    }
    let golden: Vec<(String, u64)> = GOLDEN_POINT_DIGESTS
        .iter()
        .map(|&(name, digest)| (name.to_string(), digest))
        .collect();
    assert!(
        got == golden,
        "the point digests moved; they now read:\n{got:#x?}"
    );
}
