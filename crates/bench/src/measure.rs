//! Measurement helpers shared by every experiment.
//!
//! All query measurement funnels through the typed query-plan engine
//! ([`QueryEngine`]): experiments describe their workload as [`Query`]
//! plans, the engine owns the `ExecStats` plumbing, and the helpers here
//! reduce the resulting reports to the per-query means the paper's tables
//! print. The low-level `SpatialIndex` methods stay what they were — the
//! implementation layer underneath the engine.

use std::time::Instant;
use wazi_core::{BatchStrategy, Query, QueryEngine, QueryOutput, SpatialIndex, StrategyDecisions};
use wazi_geom::{Point, Rect};
use wazi_storage::ExecStats;

/// Aggregate measurement of a range-query workload on one index.
#[derive(Debug, Clone, Copy, Default)]
pub struct RangeMeasurement {
    /// Number of queries executed.
    pub queries: usize,
    /// Mean end-to-end latency per query in nanoseconds (wall clock).
    pub mean_latency_ns: f64,
    /// Mean projection-phase time per query in nanoseconds (as reported by
    /// the index's own instrumentation).
    pub mean_projection_ns: f64,
    /// Mean scan-phase time per query in nanoseconds.
    pub mean_scan_ns: f64,
    /// Mean result-set size per query.
    pub mean_results: f64,
    /// Mean points compared per query.
    pub mean_points_scanned: f64,
    /// Mean excess (non-result) points compared per query.
    pub mean_excess_points: f64,
    /// Mean bounding boxes checked per query.
    pub mean_bbs_checked: f64,
    /// Mean pages scanned per query.
    pub mean_pages_scanned: f64,
}

/// Runs every query once through the non-materializing counting path
/// ([`SpatialIndex::range_count`]) and averages latency and work counters.
///
/// Executing without materialization makes the measured work match the
/// paper's cost model (Eq. 5): queries are charged for bounding boxes
/// checked and points compared, not for allocating result vectors the
/// model never accounts for. Result cardinalities are taken from the
/// [`ExecStats`] counters the indexes maintain.
pub fn measure_range_queries(index: &dyn SpatialIndex, queries: &[Rect]) -> RangeMeasurement {
    if queries.is_empty() {
        return RangeMeasurement::default();
    }
    let engine = QueryEngine::new(index);
    let mut stats = ExecStats::default();
    let mut total_latency = 0u64;
    for query in queries {
        let report = engine
            .execute(&Query::range_count(*query))
            .expect("workload rectangles are finite");
        total_latency += report.latency_ns;
        stats.merge(&report.stats);
        std::hint::black_box(&report.output);
    }
    let n = queries.len() as f64;
    RangeMeasurement {
        queries: queries.len(),
        mean_latency_ns: total_latency as f64 / n,
        mean_projection_ns: stats.projection_ns as f64 / n,
        mean_scan_ns: stats.scan_ns as f64 / n,
        mean_results: stats.results as f64 / n,
        mean_points_scanned: stats.points_scanned as f64 / n,
        mean_excess_points: stats.excess_points() as f64 / n,
        mean_bbs_checked: stats.bbs_checked as f64 / n,
        mean_pages_scanned: stats.pages_scanned as f64 / n,
    }
}

/// Aggregate measurement of a point-query workload on one index.
#[derive(Debug, Clone, Copy, Default)]
pub struct PointMeasurement {
    /// Number of point queries executed.
    pub queries: usize,
    /// Mean latency per point query in nanoseconds.
    pub mean_latency_ns: f64,
    /// Fraction of probes that found their point.
    pub hit_rate: f64,
}

/// Runs every point query once and averages latency.
pub fn measure_point_queries(index: &dyn SpatialIndex, probes: &[Point]) -> PointMeasurement {
    if probes.is_empty() {
        return PointMeasurement::default();
    }
    let engine = QueryEngine::new(index);
    let mut total_latency = 0u64;
    let mut hits = 0usize;
    for probe in probes {
        let report = engine
            .execute(&Query::point(*probe))
            .expect("probe points are finite");
        total_latency += report.latency_ns;
        hits += usize::from(report.output == QueryOutput::Found(true));
    }
    PointMeasurement {
        queries: probes.len(),
        mean_latency_ns: total_latency as f64 / probes.len() as f64,
        hit_rate: hits as f64 / probes.len() as f64,
    }
}

/// Aggregate measurement of an insert batch on one index.
#[derive(Debug, Clone, Copy, Default)]
pub struct InsertMeasurement {
    /// Number of points inserted.
    pub inserts: usize,
    /// Mean latency per insert in nanoseconds.
    pub mean_latency_ns: f64,
}

/// Inserts every point once and averages latency. Points rejected by the
/// index (unsupported operation) are counted as zero-latency failures and
/// reflected in `inserts`.
pub fn measure_inserts(index: &mut dyn SpatialIndex, points: &[Point]) -> InsertMeasurement {
    if points.is_empty() {
        return InsertMeasurement::default();
    }
    let mut total_latency = 0u64;
    let mut inserted = 0usize;
    for p in points {
        let start = Instant::now();
        if index.insert(*p).is_ok() {
            total_latency += start.elapsed().as_nanos() as u64;
            inserted += 1;
        }
    }
    InsertMeasurement {
        inserts: inserted,
        mean_latency_ns: if inserted == 0 {
            0.0
        } else {
            total_latency as f64 / inserted as f64
        },
    }
}

/// Work and time attributed to one plan type (range / point / kNN) of a
/// mixed batch: the per-query counters of the type's plans plus the shared
/// work its fused partition performed on their behalf.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlanKindMeasurement {
    /// Number of plans of this type in the batch.
    pub queries: usize,
    /// Pages scanned for this type (per-query plus partition-shared).
    pub pages_scanned: u64,
    /// Result points this type produced.
    pub results: u64,
    /// Instrumented projection + scan time for this type in nanoseconds
    /// (comparable across strategies, unlike per-query wall clocks, which
    /// the fused paths attribute to the batch as a whole).
    pub time_ns: u64,
}

impl PlanKindMeasurement {
    fn absorb(&mut self, stats: &ExecStats) {
        self.pages_scanned += stats.pages_scanned;
        self.results += stats.results;
        self.time_ns += stats.total_ns();
    }
}

/// Aggregate measurement of one typed query batch on one index.
#[derive(Debug, Clone, Copy, Default)]
pub struct BatchMeasurement {
    /// Number of queries in the batch.
    pub queries: usize,
    /// Number of range queries executed through the fused batch kernel.
    pub fused_queries: usize,
    /// Number of point probes executed through the fused point-batch
    /// kernel.
    pub fused_points: usize,
    /// Number of kNN plans executed through the shared expanding-ring
    /// sweep.
    pub fused_knn: usize,
    /// Number of sweep shards the fused kernel ran on (zero when the batch
    /// executed sequentially, one for the single-threaded fused sweep).
    pub shards_used: usize,
    /// Wall-clock latency of the whole batch in nanoseconds.
    pub batch_latency_ns: u64,
    /// Total result points across the batch.
    pub total_results: u64,
    /// Merged work counters (per-query plus batch-shared work).
    pub totals: ExecStats,
    /// Work attributed to the batch's range plans.
    pub range_kind: PlanKindMeasurement,
    /// Work attributed to the batch's point probes.
    pub point_kind: PlanKindMeasurement,
    /// Work attributed to the batch's kNN plans.
    pub knn_kind: PlanKindMeasurement,
    /// The per-partition strategy decisions, when the batch ran under
    /// [`wazi_core::BatchStrategy::Auto`] (every field `None` under a fixed
    /// strategy).
    pub decisions: StrategyDecisions,
}

/// Executes one mixed batch through the engine under the given strategy and
/// reduces the report to its aggregate work counters, overall and per plan
/// type.
pub fn measure_query_batch(
    index: &dyn SpatialIndex,
    batch: &[Query],
    strategy: BatchStrategy,
) -> BatchMeasurement {
    let engine = QueryEngine::new(index).with_strategy(strategy);
    let report = engine
        .execute_batch(batch)
        .expect("generated batches are valid");
    let mut range_kind = PlanKindMeasurement::default();
    let mut point_kind = PlanKindMeasurement::default();
    let mut knn_kind = PlanKindMeasurement::default();
    for (query, query_report) in batch.iter().zip(&report.reports) {
        let kind = match query {
            Query::Range { .. } => &mut range_kind,
            Query::Point(_) => &mut point_kind,
            Query::Knn { .. } => &mut knn_kind,
        };
        kind.queries += 1;
        kind.absorb(&query_report.stats);
    }
    range_kind.absorb(&report.range_shared_stats);
    point_kind.absorb(&report.point_shared_stats);
    knn_kind.absorb(&report.knn_shared_stats);
    BatchMeasurement {
        queries: report.len(),
        fused_queries: report.fused_queries,
        fused_points: report.fused_points,
        fused_knn: report.fused_knn,
        shards_used: report.shards_used,
        batch_latency_ns: report.latency_ns,
        total_results: report.total_results(),
        totals: report.merged_stats(),
        range_kind,
        point_kind,
        knn_kind,
        decisions: report.strategy_chosen,
    }
}

/// Warm-up pass plus best-of-3 [`measure_query_batch`], so every strategy
/// is compared on warm caches instead of paying first-touch page faults in
/// whichever strategy happens to run first. The minimum is the statistic
/// the wall-clock asserts need: on a loaded one-core host a single run can
/// absorb a scheduler hiccup larger than the whole batch latency, and the
/// comparisons are about the work the strategies do, not the scheduler.
pub fn measure_warm(
    index: &dyn SpatialIndex,
    batch: &[Query],
    strategy: BatchStrategy,
) -> BatchMeasurement {
    const RUNS: usize = 3;
    let _ = measure_query_batch(index, batch, strategy);
    let mut best = measure_query_batch(index, batch, strategy);
    for _ in 1..RUNS {
        let m = measure_query_batch(index, batch, strategy);
        if m.batch_latency_ns < best.batch_latency_ns {
            best = m;
        }
    }
    best
}

/// Formats a nanosecond quantity with an adaptive unit for table output.
pub fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} us", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::{build_index, IndexKind};
    use wazi_workload::{generate_dataset, generate_queries, sample_point_queries, Region};

    #[test]
    fn range_measurement_reports_sane_numbers() {
        let points = generate_dataset(Region::Iberia, 3_000);
        let queries = generate_queries(Region::Iberia, 50, 0.001);
        let built = build_index(IndexKind::Wazi, &points, &queries, 64);
        let m = measure_range_queries(built.index.as_ref(), &queries);
        assert_eq!(m.queries, 50);
        assert!(m.mean_latency_ns > 0.0);
        assert!(m.mean_results > 0.0);
        assert!(m.mean_points_scanned >= m.mean_results);
        assert!(m.mean_excess_points >= 0.0);
        let empty = measure_range_queries(built.index.as_ref(), &[]);
        assert_eq!(empty.queries, 0);
    }

    #[test]
    fn point_measurement_hits_indexed_points() {
        let points = generate_dataset(Region::Japan, 2_000);
        let built = build_index(IndexKind::Base, &points, &[], 64);
        let probes = sample_point_queries(&points, 200, 1);
        let m = measure_point_queries(built.index.as_ref(), &probes);
        assert_eq!(m.queries, 200);
        assert_eq!(m.hit_rate, 1.0);
        assert!(m.mean_latency_ns > 0.0);
    }

    #[test]
    fn insert_measurement_counts_supported_inserts_only() {
        let points = generate_dataset(Region::CaliNev, 1_000);
        let queries = generate_queries(Region::CaliNev, 20, 0.001);
        let mut flood = build_index(IndexKind::Flood, &points, &queries, 64);
        let extra = generate_dataset(Region::CaliNev, 200);
        let m = measure_inserts(flood.index.as_mut(), &extra);
        assert_eq!(m.inserts, 200);
        assert!(m.mean_latency_ns > 0.0);

        // QUASII rejects inserts: the measurement reports zero successes.
        let mut quasii = build_index(IndexKind::Quasii, &points, &queries, 64);
        let m = measure_inserts(quasii.index.as_mut(), &extra);
        assert_eq!(m.inserts, 0);
    }

    #[test]
    fn batch_measurement_is_equivalent_across_strategies_and_shares_pages() {
        use wazi_workload::generate_mixed_batch;
        let points = generate_dataset(Region::NewYork, 4_000);
        let queries = generate_queries(Region::NewYork, 100, 0.001);
        let built = build_index(IndexKind::Wazi, &points, &queries, 64);
        let batch = generate_mixed_batch(Region::NewYork, 200, 0.001, 21);

        let sequential =
            measure_query_batch(built.index.as_ref(), &batch, BatchStrategy::Sequential);
        let fused = measure_query_batch(built.index.as_ref(), &batch, BatchStrategy::Fused);
        assert_eq!(sequential.queries, 200);
        assert_eq!(sequential.fused_queries, 0);
        assert!(fused.fused_queries > 0);
        assert_eq!(sequential.total_results, fused.total_results);
        assert_eq!(sequential.totals.results, fused.totals.results);
        assert!(
            fused.totals.pages_scanned < sequential.totals.pages_scanned,
            "fused {} pages vs sequential {}",
            fused.totals.pages_scanned,
            sequential.totals.pages_scanned
        );
    }

    #[test]
    fn auto_batches_surface_their_decisions() {
        use wazi_workload::generate_mixed_batch;
        let points = generate_dataset(Region::NewYork, 4_000);
        let queries = generate_queries(Region::NewYork, 100, 0.001);
        let built = build_index(IndexKind::Wazi, &points, &queries, 64);
        let batch = generate_mixed_batch(Region::NewYork, 200, 0.001, 21);
        let auto = measure_query_batch(built.index.as_ref(), &batch, BatchStrategy::Auto);
        assert!(auto.decisions.range.is_some(), "range partition decided");
        let fixed = measure_query_batch(built.index.as_ref(), &batch, BatchStrategy::Fused);
        assert_eq!(fixed.decisions.iter().count(), 0);
        assert_eq!(auto.total_results, fixed.total_results);
    }

    #[test]
    fn ns_formatting() {
        assert_eq!(format_ns(500.0), "500 ns");
        assert_eq!(format_ns(2_500.0), "2.50 us");
        assert_eq!(format_ns(3_000_000.0), "3.00 ms");
        assert_eq!(format_ns(1.5e9), "1.50 s");
    }
}
