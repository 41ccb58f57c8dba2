//! Engine unit tests: plan execution against the trait, batch equivalence,
//! fused-kernel sharing and error paths.

use crate::engine::{BatchStrategy, EngineError, Query, QueryEngine, QueryOutput, RangeMode};
use crate::index::{IndexError, SpatialIndex, UpdateOp};
use crate::zindex::ZIndex;
use wazi_geom::{Point, Rect};
use wazi_storage::ExecStats;

/// A deterministic clustered dataset: a jittered grid with a dense corner.
fn dataset() -> Vec<Point> {
    let mut points = Vec::new();
    for i in 0..60 {
        for j in 0..60 {
            let x = i as f64 / 60.0 + ((i * 31 + j * 17) % 7) as f64 * 1e-4;
            let y = j as f64 / 60.0 + ((i * 13 + j * 29) % 5) as f64 * 1e-4;
            points.push(Point::new(x, y));
        }
    }
    // Dense hotspot: extra points in the lower-left quarter.
    for k in 0..900 {
        let x = (k % 30) as f64 / 120.0;
        let y = (k / 30) as f64 / 120.0;
        points.push(Point::new(x + 2e-5, y + 3e-5));
    }
    points
}

/// An overlapping range workload concentrated on the hotspot.
fn overlapping_rects() -> Vec<Rect> {
    let mut rects = Vec::new();
    for k in 0..12 {
        let shift = k as f64 * 0.01;
        rects.push(Rect::from_coords(
            0.02 + shift,
            0.03 + shift,
            0.22 + shift,
            0.21 + shift,
        ));
    }
    // Two byte-identical queries guarantee page sharing.
    rects.push(Rect::from_coords(0.05, 0.05, 0.2, 0.2));
    rects.push(Rect::from_coords(0.05, 0.05, 0.2, 0.2));
    rects
}

fn wazi_index() -> ZIndex {
    let train: Vec<Rect> = overlapping_rects();
    ZIndex::build_wazi(dataset(), &train)
}

#[test]
fn execute_agrees_with_the_raw_trait_calls() {
    let index = wazi_index();
    let engine = QueryEngine::new(&index);
    let rect = Rect::from_coords(0.1, 0.1, 0.35, 0.3);

    let mut stats = ExecStats::default();
    let expected = index.range_query(&rect, &mut stats);
    let report = engine.execute(&Query::range(rect)).unwrap();
    assert_eq!(report.output, QueryOutput::Points(expected.clone()));
    assert_eq!(report.stats.results, stats.results);
    assert_eq!(report.stats.points_scanned, stats.points_scanned);
    assert_eq!(report.output.result_count(), expected.len() as u64);

    let count = engine.execute(&Query::range_count(rect)).unwrap();
    assert_eq!(count.output, QueryOutput::Count(expected.len() as u64));

    let streamed = engine.execute(&Query::range_stream(rect)).unwrap();
    assert_eq!(
        streamed.output,
        QueryOutput::Streamed(expected.len() as u64)
    );

    let probe = expected[0];
    let found = engine.execute(&Query::point(probe)).unwrap();
    assert_eq!(found.output, QueryOutput::Found(true));
    let missed = engine
        .execute(&Query::point(Point::new(0.987, 0.003)))
        .unwrap();
    assert_eq!(missed.output, QueryOutput::Found(false));

    let mut stats = ExecStats::default();
    let expected_knn = index.knn(&Point::new(0.2, 0.2), 5, &mut stats);
    let knn = engine
        .execute(&Query::knn(Point::new(0.2, 0.2), 5))
        .unwrap();
    assert_eq!(knn.output, QueryOutput::Neighbors(expected_knn));
}

/// The sequential batch path must be indistinguishable from a hand-written
/// per-query loop: same outputs, same per-query stats, zero shared stats.
#[test]
fn sequential_batch_equals_the_per_query_loop() {
    let index = wazi_index();
    let engine = QueryEngine::new(&index).with_strategy(BatchStrategy::Sequential);
    let mut batch: Vec<Query> = overlapping_rects()
        .into_iter()
        .enumerate()
        .map(|(i, rect)| match i % 3 {
            0 => Query::range(rect),
            1 => Query::range_count(rect),
            _ => Query::range_stream(rect),
        })
        .collect();
    batch.push(Query::point(Point::new(0.1, 0.1)));
    batch.push(Query::knn(Point::new(0.15, 0.12), 4));

    let report = engine.execute_batch(&batch).unwrap();
    assert_eq!(report.len(), batch.len());
    assert_eq!(report.fused_queries, 0);
    assert_eq!(report.shared_stats, ExecStats::default());
    let mut merged = ExecStats::default();
    for (query, got) in batch.iter().zip(&report.reports) {
        let expected = engine.execute(query).unwrap();
        assert_eq!(got.output, expected.output);
        assert_eq!(got.stats, {
            // Phase timings are wall-clock and never reproducible; compare
            // the deterministic counters only.
            let mut s = expected.stats;
            s.projection_ns = got.stats.projection_ns;
            s.scan_ns = got.stats.scan_ns;
            s
        });
        merged.merge(&got.stats);
    }
    assert_eq!(report.merged_stats(), merged);
}

/// The fused strategy returns byte-identical outputs and scans shared pages
/// once per batch: merged `pages_scanned` drops strictly below the
/// sequential loop's on an overlapping batch.
#[test]
fn fused_batch_matches_sequential_and_shares_pages() {
    let index = wazi_index();
    let sequential = QueryEngine::new(&index).with_strategy(BatchStrategy::Sequential);
    let fused = QueryEngine::new(&index).with_strategy(BatchStrategy::Fused);
    assert_eq!(fused.strategy(), BatchStrategy::Fused);

    let mut batch: Vec<Query> = overlapping_rects()
        .into_iter()
        .enumerate()
        .map(|(i, rect)| match i % 3 {
            0 => Query::range(rect),
            1 => Query::range_count(rect),
            _ => Query::range_stream(rect),
        })
        .collect();
    batch.push(Query::point(Point::new(0.07, 0.04)));
    batch.push(Query::knn(Point::new(0.3, 0.3), 3));

    let seq_report = sequential.execute_batch(&batch).unwrap();
    let fused_report = fused.execute_batch(&batch).unwrap();
    assert_eq!(fused_report.fused_queries, batch.len() - 2);
    assert_eq!(fused_report.len(), seq_report.len());
    for (a, b) in seq_report.reports.iter().zip(&fused_report.reports) {
        assert_eq!(a.output, b.output);
    }
    // Point comparisons and results are attributed per query either way.
    assert_eq!(
        fused_report.merged_stats().results,
        seq_report.merged_stats().results
    );
    assert!(
        fused_report.merged_stats().pages_scanned < seq_report.merged_stats().pages_scanned,
        "fused: {} pages, sequential: {} pages",
        fused_report.merged_stats().pages_scanned,
        seq_report.merged_stats().pages_scanned
    );
}

/// Fusion is an optimization, never a requirement: an index without a batch
/// kernel executes a fused-strategy batch sequentially.
#[test]
fn fused_strategy_falls_back_without_a_kernel() {
    struct Scan(Vec<Point>);
    impl SpatialIndex for Scan {
        fn name(&self) -> &'static str {
            "Scan"
        }
        fn len(&self) -> usize {
            self.0.len()
        }
        fn data_bounds(&self) -> Rect {
            Rect::bounding(&self.0)
        }
        fn range_query(&self, query: &Rect, stats: &mut ExecStats) -> Vec<Point> {
            stats.points_scanned += self.0.len() as u64;
            let out: Vec<Point> = self
                .0
                .iter()
                .copied()
                .filter(|p| query.contains(p))
                .collect();
            stats.results += out.len() as u64;
            out
        }
        fn point_query(&self, p: &Point, stats: &mut ExecStats) -> bool {
            stats.points_scanned += self.0.len() as u64;
            self.0.contains(p)
        }
        fn size_bytes(&self) -> usize {
            0
        }
    }
    let scan = Scan(dataset());
    assert!(scan.range_batch_kernel().is_none());
    let engine = QueryEngine::new(&scan).with_strategy(BatchStrategy::Fused);
    let batch: Vec<Query> = overlapping_rects()
        .into_iter()
        .map(Query::range_count)
        .collect();
    let report = engine.execute_batch(&batch).unwrap();
    assert_eq!(report.fused_queries, 0);
    assert_eq!(report.len(), batch.len());
}

/// A fused batch with fewer than two range plans gains nothing from the
/// kernel and runs sequentially.
#[test]
fn fused_strategy_needs_at_least_two_range_plans() {
    let index = wazi_index();
    let engine = QueryEngine::new(&index).with_strategy(BatchStrategy::Fused);
    let batch = vec![
        Query::range_count(Rect::from_coords(0.1, 0.1, 0.2, 0.2)),
        Query::point(Point::new(0.5, 0.5)),
    ];
    let report = engine.execute_batch(&batch).unwrap();
    assert_eq!(report.fused_queries, 0);
}

#[test]
fn invalid_plans_reject_the_whole_batch_before_any_work() {
    let index = wazi_index();
    let engine = QueryEngine::new(&index);
    assert!(matches!(
        engine.execute(&Query::point(Point::new(f64::NAN, 0.5))),
        Err(EngineError::InvalidQuery(_))
    ));
    let batch = vec![
        Query::range_count(Rect::from_coords(0.1, 0.1, 0.2, 0.2)),
        Query::range(Rect::EMPTY),
    ];
    assert!(matches!(
        engine.execute_batch(&batch),
        Err(EngineError::InvalidQuery(_))
    ));
}

#[test]
fn engine_error_wraps_index_errors_and_displays() {
    let err: EngineError = IndexError::Unsupported(UpdateOp::Insert).into();
    assert_eq!(
        err,
        EngineError::Index(IndexError::Unsupported(UpdateOp::Insert))
    );
    assert!(err.to_string().contains("operation not supported"));
    assert!(std::error::Error::source(&err).is_some());
    let invalid = EngineError::InvalidQuery("nan".into());
    assert!(invalid.to_string().contains("invalid query"));
    assert!(std::error::Error::source(&invalid).is_none());
}

/// The fused path preserves input order across interleaved plan kinds.
#[test]
fn fused_batch_preserves_input_order() {
    let index = wazi_index();
    let engine = QueryEngine::new(&index).with_strategy(BatchStrategy::Fused);
    let batch = vec![
        Query::point(Point::new(0.11, 0.14)),
        Query::range_count(Rect::from_coords(0.0, 0.0, 0.3, 0.3)),
        Query::knn(Point::new(0.5, 0.5), 2),
        Query::range(Rect::from_coords(0.1, 0.1, 0.25, 0.25)),
        Query::range_stream(Rect::from_coords(0.05, 0.0, 0.3, 0.2)),
    ];
    let report = engine.execute_batch(&batch).unwrap();
    assert!(matches!(report.reports[0].output, QueryOutput::Found(_)));
    assert!(matches!(report.reports[1].output, QueryOutput::Count(_)));
    assert!(matches!(
        report.reports[2].output,
        QueryOutput::Neighbors(_)
    ));
    assert!(matches!(report.reports[3].output, QueryOutput::Points(_)));
    assert!(matches!(report.reports[4].output, QueryOutput::Streamed(_)));
}

/// An empty batch is legal and produces an empty report.
#[test]
fn empty_batch_is_a_no_op() {
    let index = wazi_index();
    for strategy in [BatchStrategy::Sequential, BatchStrategy::Fused] {
        let engine = QueryEngine::new(&index).with_strategy(strategy);
        let report = engine.execute_batch(&[]).unwrap();
        assert!(report.is_empty());
        assert_eq!(report.merged_stats(), ExecStats::default());
        assert_eq!(report.total_results(), 0);
    }
}

/// `RangeMode::Stream` dropped into a fused batch behaves like the
/// sequential measurement mode: counts match the collect mode's sizes.
#[test]
fn stream_counts_agree_across_modes_and_strategies() {
    let index = wazi_index();
    let rects = overlapping_rects();
    for strategy in [BatchStrategy::Sequential, BatchStrategy::Fused] {
        let engine = QueryEngine::new(&index).with_strategy(strategy);
        let collect: Vec<Query> = rects.iter().copied().map(Query::range).collect();
        let stream: Vec<Query> = rects.iter().copied().map(Query::range_stream).collect();
        let collected = engine.execute_batch(&collect).unwrap();
        let streamed = engine.execute_batch(&stream).unwrap();
        for (c, s) in collected.reports.iter().zip(&streamed.reports) {
            assert_eq!(
                c.output.result_count(),
                s.output.result_count(),
                "{:?} vs {:?}",
                c.output,
                s.output
            );
            assert!(matches!(s.output, QueryOutput::Streamed(_)));
        }
    }
}

/// The walk follows every request's own look-ahead pointers, so the fused
/// path replicates each query's sequential walk bounding-box for
/// bounding-box: merged fused BB checks equal the sequential loop's (and
/// so do point comparisons and per-query skips).
#[test]
fn fused_bb_checks_equal_the_sequential_walks() {
    let index = wazi_index();
    let batch: Vec<Query> = overlapping_rects()
        .into_iter()
        .map(Query::range_count)
        .collect();
    let sequential = QueryEngine::new(&index)
        .with_strategy(BatchStrategy::Sequential)
        .execute_batch(&batch)
        .unwrap();
    let fused = QueryEngine::new(&index)
        .with_strategy(BatchStrategy::Fused)
        .execute_batch(&batch)
        .unwrap();
    assert_eq!(fused.bbs_checked(), sequential.bbs_checked());
    assert_eq!(
        fused.merged_stats().points_scanned,
        sequential.merged_stats().points_scanned
    );
    assert_eq!(
        fused.merged_stats().leaves_skipped,
        sequential.merged_stats().leaves_skipped
    );
    // Per-query attribution matches the sequential walk too, not just the
    // totals.
    for (f, s) in fused.reports.iter().zip(&sequential.reports) {
        assert_eq!(f.stats.bbs_checked, s.stats.bbs_checked);
        assert_eq!(f.stats.points_scanned, s.stats.points_scanned);
        assert_eq!(f.stats.leaves_skipped, s.stats.leaves_skipped);
        assert_eq!(f.stats.results, s.stats.results);
    }
}

/// `FusedParallel` is output- and counter-deterministic for every shard
/// count: answers are byte-identical to the sequential loop and the
/// physical-work counters match, however the pages are chunked.
#[test]
fn fused_parallel_matches_sequential_for_every_shard_count() {
    let index = wazi_index();
    let mut batch: Vec<Query> = overlapping_rects()
        .into_iter()
        .enumerate()
        .map(|(i, rect)| match i % 3 {
            0 => Query::range(rect),
            1 => Query::range_count(rect),
            _ => Query::range_stream(rect),
        })
        .collect();
    batch.push(Query::point(Point::new(0.07, 0.04)));
    batch.push(Query::knn(Point::new(0.3, 0.3), 3));
    let sequential = QueryEngine::new(&index)
        .with_strategy(BatchStrategy::Sequential)
        .execute_batch(&batch)
        .unwrap();
    for shards in [0, 1, 2, 4, 8, 64] {
        let parallel = QueryEngine::new(&index)
            .with_strategy(BatchStrategy::FusedParallel { shards })
            .execute_batch(&batch)
            .unwrap();
        assert_eq!(parallel.len(), sequential.len());
        for (p, s) in parallel.reports.iter().zip(&sequential.reports) {
            assert_eq!(p.output, s.output, "{shards} shards");
        }
        let p = parallel.merged_stats();
        let s = sequential.merged_stats();
        assert_eq!(p.points_scanned, s.points_scanned, "{shards} shards");
        assert_eq!(p.results, s.results, "{shards} shards");
        assert_eq!(p.nodes_visited, s.nodes_visited, "{shards} shards");
        assert!(
            p.pages_scanned <= s.pages_scanned,
            "{shards} shards: {} pages vs sequential {}",
            p.pages_scanned,
            s.pages_scanned
        );
        assert!(parallel.shards_used >= 1 && parallel.shards_used <= shards.max(1));
        assert_eq!(parallel.fused_queries, batch.len() - 2);
    }
}

/// Shards split the scans, never a walk: every request is walked once
/// before the distinct pages are chunked, so parallel BB checks and skips
/// equal the single fused scan's — which equals the sequential loop's —
/// exactly, for every shard count.
#[test]
fn fused_parallel_bb_checks_equal_the_single_sweep() {
    let index = wazi_index();
    let batch: Vec<Query> = overlapping_rects()
        .into_iter()
        .map(Query::range_count)
        .collect();
    let sequential = QueryEngine::new(&index)
        .with_strategy(BatchStrategy::Sequential)
        .execute_batch(&batch)
        .unwrap();
    let fused = QueryEngine::new(&index)
        .with_strategy(BatchStrategy::Fused)
        .execute_batch(&batch)
        .unwrap();
    assert_eq!(fused.bbs_checked(), sequential.bbs_checked());
    for shards in [2, 4, 8] {
        let parallel = QueryEngine::new(&index)
            .with_strategy(BatchStrategy::FusedParallel { shards })
            .execute_batch(&batch)
            .unwrap();
        assert_eq!(
            parallel.bbs_checked(),
            sequential.bbs_checked(),
            "{shards} shards: sharding must not add bounding-box checks"
        );
        assert_eq!(
            parallel.merged_stats().leaves_skipped,
            sequential.merged_stats().leaves_skipped,
            "{shards} shards: sharding must not change skip counts"
        );
    }
}

/// Degenerate parallel batches: empty, single-plan and smaller than the
/// shard count — all legal, all equivalent to sequential execution.
#[test]
fn fused_parallel_handles_degenerate_batches() {
    let index = wazi_index();
    let engine = QueryEngine::new(&index).with_strategy(BatchStrategy::FusedParallel { shards: 8 });

    let empty = engine.execute_batch(&[]).unwrap();
    assert!(empty.is_empty());
    assert_eq!(empty.merged_stats(), ExecStats::default());

    let single = vec![Query::range_count(Rect::from_coords(0.1, 0.1, 0.2, 0.2))];
    let report = engine.execute_batch(&single).unwrap();
    assert_eq!(report.fused_queries, 0, "one range plan runs sequentially");
    let expected = QueryEngine::new(&index)
        .with_strategy(BatchStrategy::Sequential)
        .execute_batch(&single)
        .unwrap();
    assert_eq!(report.reports[0].output, expected.reports[0].output);

    let three: Vec<Query> = overlapping_rects()
        .into_iter()
        .take(3)
        .map(Query::range)
        .collect();
    let report = engine.execute_batch(&three).unwrap();
    let expected = QueryEngine::new(&index)
        .with_strategy(BatchStrategy::Sequential)
        .execute_batch(&three)
        .unwrap();
    for (got, want) in report.reports.iter().zip(&expected.reports) {
        assert_eq!(got.output, want.output);
    }
    assert_eq!(report.fused_queries, 3);
}

/// The parallel strategy on an index without a kernel falls back to the
/// sequential loop, exactly like the plain fused strategy does.
#[test]
fn fused_parallel_falls_back_without_a_kernel() {
    struct Scan(Vec<Point>);
    impl SpatialIndex for Scan {
        fn name(&self) -> &'static str {
            "Scan"
        }
        fn len(&self) -> usize {
            self.0.len()
        }
        fn data_bounds(&self) -> Rect {
            Rect::bounding(&self.0)
        }
        fn range_query(&self, query: &Rect, stats: &mut ExecStats) -> Vec<Point> {
            stats.points_scanned += self.0.len() as u64;
            self.0
                .iter()
                .copied()
                .filter(|p| query.contains(p))
                .collect()
        }
        fn point_query(&self, p: &Point, stats: &mut ExecStats) -> bool {
            stats.points_scanned += self.0.len() as u64;
            self.0.contains(p)
        }
        fn size_bytes(&self) -> usize {
            0
        }
    }
    let scan = Scan(dataset());
    let engine = QueryEngine::new(&scan).with_strategy(BatchStrategy::FusedParallel { shards: 4 });
    let batch: Vec<Query> = overlapping_rects()
        .into_iter()
        .map(Query::range_count)
        .collect();
    let report = engine.execute_batch(&batch).unwrap();
    assert_eq!(report.fused_queries, 0);
    assert_eq!(report.shards_used, 0);
    assert_eq!(report.len(), batch.len());
}

/// The overlapping requests the hand-driven chunk tests run, half of them
/// collecting.
fn overlapping_requests() -> Vec<crate::engine::RangeBatchRequest> {
    overlapping_rects()
        .into_iter()
        .enumerate()
        .map(|(i, rect)| crate::engine::RangeBatchRequest {
            rect,
            collect: i % 2 == 0,
        })
        .collect()
}

/// Driving the chunked scan by hand: any cut of the distinct-unit list
/// into contiguous chunks, scanned in any order and merged in chunk order,
/// reproduces the single scan bit for bit — outputs, per-request counters
/// and shared page visits, since every unit belongs to exactly one chunk.
#[test]
fn manual_shard_partition_reproduces_the_full_sweep() {
    use crate::engine::batch::{
        filter, merge_partials, plan_unit_chunks, scan_units, walk, UnitGroups,
    };
    use crate::engine::{run_range_batch, RangeBatchKernel, RangeBatchResponse};
    let index = wazi_index();
    let requests = overlapping_requests();
    let kernel: &dyn RangeBatchKernel = &index;
    let (single, single_shards) = run_range_batch(kernel, &requests, 1);
    assert_eq!(single_shards, 1);
    let record = walk(kernel, &requests);
    let groups = UnitGroups::of(&record);
    let (zeroed, read) = (
        RangeBatchResponse::zeroed(&requests),
        filter(kernel, &requests),
    );
    for shards in [2, 3, 5] {
        let chunks = plan_unit_chunks(&groups, shards);
        assert_eq!(chunks.len(), shards, "enough units for {shards} chunks");
        // Scan in reverse order to prove order-independence of the work…
        let mut partials: Vec<_> = chunks
            .iter()
            .rev()
            .map(|chunk| scan_units(&record, &groups, chunk.clone(), zeroed.clone(), &read))
            .collect();
        // …then merge in chunk order, as the engine does.
        partials.reverse();
        let merged = merge_partials(&record, partials);
        assert_eq!(merged.outputs, single.outputs, "{shards} shards");
        assert_eq!(
            merged.shared.pages_scanned, single.shared.pages_scanned,
            "{shards} shards: every unit is fetched once"
        );
        for (m, s) in merged.per_query.iter().zip(&single.per_query) {
            let mut m = *m;
            m.projection_ns = s.projection_ns;
            m.scan_ns = s.scan_ns;
            assert_eq!(m, *s, "{shards} shards");
        }
    }
}

/// The scoped-thread fan-out itself (exercised directly, so single-core
/// hosts — where the engine's oversubscription guard scans inline — still
/// test the spawning path): threaded chunk scans return the same partials
/// as inline scans, in chunk order.
#[test]
fn threaded_fan_out_matches_inline_sweeps() {
    use crate::engine::batch::{
        filter, plan_unit_chunks, scan_spans_threaded, scan_units, walk, UnitGroups,
    };
    use crate::engine::{RangeBatchKernel, RangeBatchResponse};
    let index = wazi_index();
    let requests = overlapping_requests();
    let kernel: &dyn RangeBatchKernel = &index;
    let record = walk(kernel, &requests);
    let groups = UnitGroups::of(&record);
    let (zeroed, read) = (
        RangeBatchResponse::zeroed(&requests),
        filter(kernel, &requests),
    );
    let chunks = plan_unit_chunks(&groups, 4);
    assert_eq!(chunks.len(), 4, "need a real multi-chunk plan");
    let inline: Vec<_> = chunks
        .iter()
        .map(|chunk| scan_units(&record, &groups, chunk.clone(), zeroed.clone(), &read))
        .collect();
    let threaded = scan_spans_threaded(&record, &groups, &chunks, &zeroed, &read);
    assert_eq!(threaded.len(), inline.len());
    for (t, i) in threaded.iter().zip(&inline) {
        assert_eq!(t.outputs, i.outputs);
        assert_eq!(t.shared.pages_scanned, i.shared.pages_scanned);
        for (a, b) in t.per_query.iter().zip(&i.per_query) {
            assert_eq!(a.points_scanned, b.points_scanned);
            assert_eq!(a.results, b.results);
        }
    }
}

/// The walk-count trap: every range request is walked exactly once,
/// whatever the strategy and shard count. On the per-query loop
/// (`Sequential`) each range query — a range plan, or one ring of a kNN
/// plan — is one `walk` call of one request. Under the fused strategies a
/// range partition costs one call (Auto prices the record it then
/// executes) and every kNN ring one call, and the requests walked are
/// exactly the range queries the loop runs. The trap answers `range_query`
/// with the one call every kernel index uses, so no plan reaches a range
/// scan that bypasses the walk.
#[test]
fn every_range_request_is_walked_once() {
    use crate::engine::{
        solo_range_query, RangeBatchKernel, RangeBatchOutput, RangeBatchRequest, WalkRecord,
    };
    use std::sync::atomic::{AtomicUsize, Ordering};
    struct WalkTrap {
        index: ZIndex,
        walks: AtomicUsize,
        walked: AtomicUsize,
    }
    impl RangeBatchKernel for WalkTrap {
        fn walk(&self, requests: &[RangeBatchRequest]) -> WalkRecord {
            self.walks.fetch_add(1, Ordering::Relaxed);
            self.walked.fetch_add(requests.len(), Ordering::Relaxed);
            self.index.walk(requests)
        }
        fn scan(
            &self,
            unit: u32,
            rect: &Rect,
            output: &mut RangeBatchOutput,
            stats: &mut ExecStats,
        ) {
            self.index.scan(unit, rect, output, stats)
        }
        fn locate(&self, p: &Point, stats: &mut ExecStats) -> Option<u32> {
            self.index.locate(p, stats)
        }
        fn probe(&self, unit: u32, p: &Point, stats: &mut ExecStats) -> bool {
            self.index.probe(unit, p, stats)
        }
    }
    impl SpatialIndex for WalkTrap {
        fn name(&self) -> &'static str {
            "WalkTrap"
        }
        fn len(&self) -> usize {
            self.index.len()
        }
        fn data_bounds(&self) -> Rect {
            self.index.data_bounds()
        }
        fn range_query(&self, query: &Rect, stats: &mut ExecStats) -> Vec<Point> {
            solo_range_query(self, query, stats)
        }
        fn point_query(&self, p: &Point, stats: &mut ExecStats) -> bool {
            self.index.point_query(p, stats)
        }
        fn size_bytes(&self) -> usize {
            self.index.size_bytes()
        }
        fn range_batch_kernel(&self) -> Option<&dyn RangeBatchKernel> {
            Some(self)
        }
    }
    let trap = WalkTrap {
        index: wazi_index(),
        walks: AtomicUsize::new(0),
        walked: AtomicUsize::new(0),
    };
    let drain = |counter: &AtomicUsize| counter.swap(0, Ordering::Relaxed);
    // Every range mode: counting, collecting and streaming plans.
    let ranges: Vec<Query> = overlapping_rects()
        .into_iter()
        .enumerate()
        .map(|(i, rect)| match i % 3 {
            0 => Query::range_count(rect),
            1 => Query::range(rect),
            _ => Query::range_stream(rect),
        })
        .collect();
    let knns = vec![
        Query::knn(Point::new(0.10, 0.10), 5),
        Query::knn(Point::new(0.11, 0.12), 5),
        Query::knn(Point::new(0.12, 0.10), 3),
    ];
    let mixed: Vec<Query> = ranges.iter().chain(&knns).cloned().collect();
    // The per-query loop's range queries: one walk of one request each.
    let loop_ranges = |batch: &[Query]| {
        QueryEngine::new(&trap)
            .with_strategy(BatchStrategy::Sequential)
            .execute_batch(batch)
            .unwrap();
        let walks = drain(&trap.walks);
        assert_eq!(
            drain(&trap.walked),
            walks,
            "a solo walk of several requests"
        );
        walks
    };
    assert_eq!(loop_ranges(&ranges), ranges.len());
    // The rings of the kNN group: the largest ring count of its plans.
    let rings = knns
        .iter()
        .map(|knn| loop_ranges(std::slice::from_ref(knn)))
        .max()
        .unwrap();
    assert!(rings >= 1);
    for strategy in [
        BatchStrategy::Fused,
        BatchStrategy::FusedParallel { shards: 2 },
        BatchStrategy::FusedParallel { shards: 4 },
        BatchStrategy::Auto,
    ] {
        for (batch, walks) in [(&ranges, 1), (&knns, rings), (&mixed, 1 + rings)] {
            let expected = loop_ranges(batch);
            let report = QueryEngine::new(&trap)
                .with_strategy(strategy)
                .execute_batch(batch)
                .unwrap();
            assert_eq!(report.len(), batch.len());
            assert_eq!(drain(&trap.walks), walks, "{strategy:?}: walk calls");
            assert_eq!(
                drain(&trap.walked),
                expected,
                "{strategy:?}: walked requests"
            );
        }
    }
}

/// An index built over no points holds one empty leaf: every request's walk
/// checks it, finds its box empty and records nothing, so every shard count
/// answers zeroed outputs — never a panic — charging exactly the sequential
/// walk's one bounding-box check.
#[test]
fn empty_index_sweeps_to_zeroed_outputs() {
    use crate::engine::{run_range_batch, RangeBatchRequest, RangeBatchResponse};
    let empty = ZIndex::build_base(Vec::new());
    let kernel = empty.range_batch_kernel().expect("one empty leaf");
    let requests = [
        RangeBatchRequest {
            rect: Rect::UNIT,
            collect: true,
        },
        RangeBatchRequest {
            rect: Rect::from_coords(0.2, 0.2, 0.4, 0.4),
            collect: false,
        },
    ];
    let zeroed = RangeBatchResponse::zeroed(&requests);
    for shards in [1, 4] {
        let (response, used) = run_range_batch(kernel, &requests, shards);
        assert_eq!(used, 1, "nothing to scan is one chunk");
        assert_eq!(response.outputs, zeroed.outputs, "{shards} shards");
        for (request, fused) in requests.iter().zip(&response.per_query) {
            let mut sequential = ExecStats::default();
            assert_eq!(empty.range_count(&request.rect, &mut sequential), 0);
            assert_eq!(fused.bbs_checked, sequential.bbs_checked);
            assert_eq!(fused.points_scanned, 0);
        }
        assert_eq!(response.shared.pages_scanned, 0);
    }
}

/// The fused point-probe partition: answers and per-probe counters equal
/// the sequential loop's, while probes sharing an owning leaf share one
/// page visit — merged page visits drop strictly below the sequential
/// loop's on a batch with duplicate probes.
#[test]
fn fused_point_batch_matches_sequential_and_shares_pages() {
    let index = wazi_index();
    let points = dataset();
    let mut batch = vec![
        Query::point(points[0]),
        Query::point(points[1]),
        Query::point(points[0]),                // duplicate probe
        Query::point(Point::new(0.987, 0.003)), // miss inside the space
        Query::point(Point::new(12.5, -3.0)),   // far outside the data
        Query::point(points[0]),                // triplicate probe
    ];
    // A run of probes inside one hot page.
    for p in points.iter().take(8) {
        batch.push(Query::point(*p));
    }
    let sequential = QueryEngine::new(&index)
        .with_strategy(BatchStrategy::Sequential)
        .execute_batch(&batch)
        .unwrap();
    let fused = QueryEngine::new(&index)
        .with_strategy(BatchStrategy::Fused)
        .execute_batch(&batch)
        .unwrap();
    assert_eq!(fused.fused_points, batch.len());
    assert_eq!(fused.fused_queries, 0);
    for (i, (f, s)) in fused.reports.iter().zip(&sequential.reports).enumerate() {
        assert_eq!(f.output, s.output, "probe {i} answer differs");
        assert_eq!(f.stats.points_scanned, s.stats.points_scanned, "probe {i}");
        assert_eq!(f.stats.nodes_visited, s.stats.nodes_visited, "probe {i}");
        assert_eq!(f.stats.results, s.stats.results, "probe {i}");
    }
    assert!(
        fused.merged_stats().pages_scanned < sequential.merged_stats().pages_scanned,
        "duplicate probes must share page visits: fused {} vs sequential {}",
        fused.merged_stats().pages_scanned,
        sequential.merged_stats().pages_scanned
    );
    assert_eq!(
        fused.point_shared_stats.pages_scanned,
        fused.merged_stats().pages_scanned
            - fused
                .reports
                .iter()
                .map(|r| r.stats.pages_scanned)
                .sum::<u64>()
    );
}

/// The fused kNN partition: co-located plans driven through the shared
/// expanding-ring sweep answer bit-identically to the sequential doubling
/// loops, at no more page visits, with candidate pages shared per ring.
#[test]
fn fused_knn_batch_matches_sequential() {
    let index = wazi_index();
    let batch = vec![
        Query::knn(Point::new(0.10, 0.10), 5),
        Query::knn(Point::new(0.11, 0.12), 5),
        Query::knn(Point::new(0.12, 0.09), 3),
        Query::knn(Point::new(0.50, 0.50), 0), // trivial: k = 0
        Query::knn(Point::new(5.0, -2.0), 2),  // far outside the data
        Query::knn(Point::new(0.13, 0.11), 4),
    ];
    let sequential = QueryEngine::new(&index)
        .with_strategy(BatchStrategy::Sequential)
        .execute_batch(&batch)
        .unwrap();
    let fused = QueryEngine::new(&index)
        .with_strategy(BatchStrategy::Fused)
        .execute_batch(&batch)
        .unwrap();
    assert_eq!(fused.fused_knn, batch.len());
    for (i, (f, s)) in fused.reports.iter().zip(&sequential.reports).enumerate() {
        assert_eq!(f.output, s.output, "kNN plan {i} answer differs");
    }
    assert_eq!(
        fused.merged_stats().results,
        sequential.merged_stats().results
    );
    assert!(
        fused.merged_stats().pages_scanned <= sequential.merged_stats().pages_scanned,
        "ring sharing must not add page visits"
    );
    assert!(
        fused.knn_shared_stats.pages_scanned > 0,
        "co-located plans must share ring page visits"
    );
}

/// A mixed batch routes every partition through its kernel and reports the
/// per-plan-type fused counts; the partition shared stats sum to the
/// batch's total shared stats.
#[test]
fn mixed_fused_batch_reports_per_partition_counts() {
    let index = wazi_index();
    let mut batch: Vec<Query> = overlapping_rects()
        .into_iter()
        .map(Query::range_count)
        .collect();
    let probes = dataset();
    batch.push(Query::point(probes[10]));
    batch.push(Query::point(probes[10]));
    batch.push(Query::knn(Point::new(0.2, 0.2), 4));
    batch.push(Query::knn(Point::new(0.21, 0.2), 4));
    let ranges = batch.len() - 4;
    for strategy in [
        BatchStrategy::Fused,
        BatchStrategy::FusedParallel { shards: 4 },
    ] {
        let report = QueryEngine::new(&index)
            .with_strategy(strategy)
            .execute_batch(&batch)
            .unwrap();
        assert_eq!(report.fused_queries, ranges, "{strategy:?}");
        assert_eq!(report.fused_points, 2, "{strategy:?}");
        assert_eq!(report.fused_knn, 2, "{strategy:?}");
        assert_eq!(report.total_fused(), ranges + 4);
        let mut partitions = report.range_shared_stats;
        partitions.merge(&report.point_shared_stats);
        partitions.merge(&report.knn_shared_stats);
        assert_eq!(partitions, report.shared_stats, "{strategy:?}");
    }
}

/// `RangeMode` round-trips through `Query` constructors.
#[test]
fn range_mode_is_exposed_on_the_plan() {
    let rect = Rect::from_coords(0.0, 0.0, 0.5, 0.5);
    for (query, mode) in [
        (Query::range(rect), RangeMode::Collect),
        (Query::range_count(rect), RangeMode::Count),
        (Query::range_stream(rect), RangeMode::Stream),
    ] {
        match query {
            Query::Range { mode: m, .. } => assert_eq!(m, mode),
            other => panic!("unexpected plan {other:?}"),
        }
    }
}

/// Auto is a pure scheduler: outputs and deterministic per-query counters
/// on a mixed batch are bit-identical to the sequential loop, and the
/// report says which strategies the cost model picked.
#[test]
fn auto_matches_sequential_and_records_its_decisions() {
    use crate::engine::ChosenStrategy;
    let index = wazi_index();
    let mut batch: Vec<Query> = overlapping_rects().into_iter().map(Query::range).collect();
    batch.push(Query::point(Point::new(0.205, 0.205)));
    batch.push(Query::point(Point::new(0.48, 0.52)));
    batch.push(Query::knn(Point::new(0.2, 0.2), 5));
    batch.push(Query::knn(Point::new(0.7, 0.7), 3));

    let sequential = QueryEngine::new(&index)
        .with_strategy(BatchStrategy::Sequential)
        .execute_batch(&batch)
        .unwrap();
    let auto = QueryEngine::new(&index).execute_batch(&batch).unwrap();

    for (a, s) in auto.reports.iter().zip(&sequential.reports) {
        assert_eq!(a.output, s.output);
    }
    assert_eq!(
        auto.merged_stats().results,
        sequential.merged_stats().results
    );
    assert_eq!(auto.bbs_checked(), sequential.bbs_checked());

    // The fixed strategies leave the decision record empty...
    assert_eq!(sequential.strategy_chosen.iter().count(), 0);
    // ...while Auto records one decision per partition it had a choice on.
    let decisions: Vec<_> = auto.strategy_chosen.iter().collect();
    assert_eq!(decisions.len(), 3, "range + point + knn partitions");
    for (kind, decision) in decisions {
        match kind {
            "range" => {
                assert_eq!(decision.queries, overlapping_rects().len());
                let estimate = decision.estimate.expect("range partitions are modelled");
                match decision.chosen {
                    ChosenStrategy::Sequential => {
                        assert!(estimate.sequential_ns <= estimate.fused_ns);
                    }
                    ChosenStrategy::Fused | ChosenStrategy::FusedParallel { .. } => {
                        assert!(estimate.fused_ns <= estimate.sequential_ns);
                    }
                }
            }
            "point" => assert_eq!(decision.queries, 2),
            "knn" => assert_eq!(decision.queries, 2),
            other => panic!("unexpected partition kind {other}"),
        }
    }
}

/// A tiny batch of two far-apart range plans gives fusion nothing to share:
/// the cost model must route it sequentially, leaving fused counters at 0.
#[test]
fn auto_routes_tiny_disjoint_batches_sequentially() {
    use crate::engine::ChosenStrategy;
    let index = wazi_index();
    let batch = vec![
        Query::range_count(Rect::from_coords(0.02, 0.02, 0.03, 0.03)),
        Query::range_count(Rect::from_coords(0.95, 0.95, 0.96, 0.96)),
    ];
    let report = QueryEngine::new(&index).execute_batch(&batch).unwrap();
    let decision = report.strategy_chosen.range.expect("a choice was made");
    assert_eq!(decision.chosen, ChosenStrategy::Sequential);
    assert_eq!(report.fused_queries, 0);
    assert_eq!(report.shared_stats, ExecStats::default());

    let sequential = QueryEngine::new(&index)
        .with_strategy(BatchStrategy::Sequential)
        .execute_batch(&batch)
        .unwrap();
    for (a, s) in report.reports.iter().zip(&sequential.reports) {
        assert_eq!(a.output, s.output);
        // Timings are wall-clock; compare only the deterministic counters.
        let mut a_stats = a.stats;
        let mut s_stats = s.stats;
        a_stats.projection_ns = 0;
        a_stats.scan_ns = 0;
        s_stats.projection_ns = 0;
        s_stats.scan_ns = 0;
        assert_eq!(a_stats, s_stats);
    }
}

/// A delegating index that panics mid-kernel whenever a query touches its
/// poison rectangle — the genuine "panic inside a kernel entry point" shape
/// the engine's isolation boundary exists for.
struct PanickyIndex {
    inner: ZIndex,
    poison: Rect,
}

impl PanickyIndex {
    fn trip(&self, rect: &Rect) {
        if rect.overlaps(&self.poison) {
            panic!("poisoned rect {:?} touched", self.poison);
        }
    }
}

impl SpatialIndex for PanickyIndex {
    fn name(&self) -> &'static str {
        "Panicky"
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn data_bounds(&self) -> Rect {
        self.inner.data_bounds()
    }

    fn range_query(&self, query: &Rect, stats: &mut ExecStats) -> Vec<Point> {
        self.trip(query);
        self.inner.range_query(query, stats)
    }

    fn range_count(&self, query: &Rect, stats: &mut ExecStats) -> u64 {
        self.trip(query);
        self.inner.range_count(query, stats)
    }

    fn point_query(&self, p: &Point, stats: &mut ExecStats) -> bool {
        self.inner.point_query(p, stats)
    }

    fn size_bytes(&self) -> usize {
        self.inner.size_bytes()
    }
}

#[test]
fn execute_caught_converts_a_kernel_panic_into_an_error() {
    let index = PanickyIndex {
        inner: wazi_index(),
        poison: Rect::from_coords(0.8, 0.8, 0.9, 0.9),
    };
    let engine = QueryEngine::new(&index);

    let err = engine
        .execute_caught(&Query::range_count(Rect::from_coords(
            0.79, 0.79, 0.95, 0.95,
        )))
        .unwrap_err();
    match err {
        EngineError::ExecutionPanicked(msg) => {
            assert!(msg.contains("poisoned rect"), "message lost: {msg}");
        }
        other => panic!("expected ExecutionPanicked, got {other:?}"),
    }

    // The unwound kernel left the index intact: the same engine keeps
    // answering non-poisoned queries with correct results.
    let safe = Rect::from_coords(0.05, 0.05, 0.2, 0.2);
    let report = engine.execute_caught(&Query::range_count(safe)).unwrap();
    let mut stats = ExecStats::default();
    assert_eq!(
        report.output,
        QueryOutput::Count(index.inner.range_count(&safe, &mut stats))
    );
}

#[test]
fn execute_batch_caught_fails_the_batch_as_one_unit() {
    let index = PanickyIndex {
        inner: wazi_index(),
        poison: Rect::from_coords(0.8, 0.8, 0.9, 0.9),
    };
    // Sequential strategy: the panic still happens inside execute_batch,
    // and the whole batch fails as one error (per-query isolation is the
    // caller's job, via execute_caught per member).
    let engine = QueryEngine::new(&index).with_strategy(BatchStrategy::Sequential);
    let batch = vec![
        Query::range_count(Rect::from_coords(0.05, 0.05, 0.2, 0.2)),
        Query::range_count(Rect::from_coords(0.79, 0.79, 0.95, 0.95)),
    ];
    let err = engine.execute_batch_caught(&batch).unwrap_err();
    assert!(matches!(err, EngineError::ExecutionPanicked(_)));

    // One-by-one re-execution recovers every non-poisoned member.
    let ok = engine.execute_caught(&batch[0]).unwrap();
    assert!(matches!(ok.output, QueryOutput::Count(_)));
    assert!(engine.execute_caught(&batch[1]).is_err());
}

#[test]
fn panic_message_preserves_str_and_string_payloads() {
    use crate::engine::panic_message;
    let payload: Box<dyn std::any::Any + Send> = Box::new("literal payload");
    assert_eq!(panic_message(payload.as_ref()), "literal payload");
    let payload: Box<dyn std::any::Any + Send> = Box::new(String::from("owned payload"));
    assert_eq!(panic_message(payload.as_ref()), "owned payload");
    let payload: Box<dyn std::any::Any + Send> = Box::new(42u32);
    assert_eq!(panic_message(payload.as_ref()), "non-string panic payload");
}
