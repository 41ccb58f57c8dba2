//! Quickstart for the typed query-plan engine: describe a workload as
//! `Query` values, execute it as one batch, and compare the sequential
//! schedule against WaZI's fused kernels — the whole mixed batch is
//! partitioned by plan type (range / point probe / kNN) and every
//! partition executes fused, single-threaded or sharded across worker
//! threads.
//!
//! Run with:
//! ```text
//! cargo run --release --example batch_queries
//! ```

use wazi_core::{BatchStrategy, QueryEngine, QueryOutput, ZIndex};
use wazi_workload::{
    generate_dataset, generate_mixed_batch, generate_overlapping_batch, generate_queries, Region,
    SELECTIVITIES,
};

fn main() {
    // 1. Build the workload-aware index exactly as in `quickstart.rs`.
    let region = Region::NewYork;
    let points = generate_dataset(region, 100_000);
    let train = generate_queries(region, 2_000, SELECTIVITIES[2]);
    let index = ZIndex::build_wazi(points, &train);

    // 2. A workload is data, not code: a deterministic mixed batch of range
    //    queries (collect / count / stream), point probes and kNN lookups.
    let batch = generate_mixed_batch(region, 1_000, SELECTIVITIES[3], 42);
    let ranges = batch.iter().filter(|q| q.is_range()).count();
    println!(
        "batch: {} queries ({} range, {} point/kNN)",
        batch.len(),
        ranges,
        batch.len() - ranges
    );

    // 3. The engine owns the ExecStats plumbing: one call, one report per
    //    query plus sound batch-level aggregates.
    let engine = QueryEngine::new(&index);
    let sequential = engine.execute_batch(&batch).expect("valid batch");
    println!(
        "sequential: {} results, {} pages scanned, {} points compared, {:.2} ms",
        sequential.total_results(),
        sequential.merged_stats().pages_scanned,
        sequential.merged_stats().points_scanned,
        sequential.latency_ns as f64 / 1e6
    );

    // 4. The fused strategy answers identically but partitions the batch by
    //    plan type and routes every partition through a fused kernel: range
    //    plans share one leaf-interval sweep, point probes are grouped by
    //    owning leaf (each hot page fetched once however many probes hit
    //    it), and kNN plans run through grouped expanding-ring sweeps that
    //    scan each candidate page once per ring.
    let fused_engine = QueryEngine::new(&index).with_strategy(BatchStrategy::Fused);
    let fused = fused_engine.execute_batch(&batch).expect("valid batch");
    assert_eq!(fused.total_results(), sequential.total_results());
    println!(
        "fused:      {} results, {} pages scanned ({} range / {} point / {} kNN plans fused), {:.2} ms",
        fused.total_results(),
        fused.merged_stats().pages_scanned,
        fused.fused_queries,
        fused.fused_points,
        fused.fused_knn,
        fused.latency_ns as f64 / 1e6
    );
    println!(
        "shared work per partition: range {} / point {} / kNN {} pages",
        fused.range_shared_stats.pages_scanned,
        fused.point_shared_stats.pages_scanned,
        fused.knn_shared_stats.pages_scanned
    );
    let saved = sequential.merged_stats().pages_scanned - fused.merged_stats().pages_scanned;
    println!(
        "fusion saved {saved} page visits ({:.1}% of the sequential scan volume)",
        100.0 * saved as f64 / sequential.merged_stats().pages_scanned.max(1) as f64
    );

    // 5. When an overlapping batch is large enough to amortize thread
    //    spawning, FusedParallel cuts the batch's distinct leaves into
    //    work-balanced chunks and scans them concurrently. Answers stay
    //    bit-identical — chunks are disjoint runs of the leaf list, merged
    //    deterministically in leaf order.
    let big_batch = generate_overlapping_batch(region, 4_000, SELECTIVITIES[3], 7);
    let fused_one = QueryEngine::new(&index)
        .with_strategy(BatchStrategy::Fused)
        .execute_batch(&big_batch)
        .expect("valid batch");
    for shards in [2usize, 4, 8] {
        let parallel = QueryEngine::new(&index)
            .with_strategy(BatchStrategy::FusedParallel { shards })
            .execute_batch(&big_batch)
            .expect("valid batch");
        assert_eq!(parallel.total_results(), fused_one.total_results());
        println!(
            "fused scan of {} overlapping queries on {} shard(s): {:.2} ms \
             ({:.2}x vs one shard)",
            big_batch.len(),
            parallel.shards_used,
            parallel.latency_ns as f64 / 1e6,
            fused_one.latency_ns as f64 / parallel.latency_ns.max(1) as f64
        );
    }

    // 6. Per-query reports keep their input order, so answers pair up with
    //    their plans without bookkeeping.
    for (query, report) in batch.iter().zip(&fused.reports).take(5) {
        let answer = match &report.output {
            QueryOutput::Points(points) => format!("{} points", points.len()),
            QueryOutput::Count(n) => format!("count = {n}"),
            QueryOutput::Streamed(n) => format!("streamed {n}"),
            QueryOutput::Found(found) => format!("found = {found}"),
            QueryOutput::Neighbors(points) => format!("{} neighbours", points.len()),
        };
        println!("  {query:?} -> {answer}");
    }
}
