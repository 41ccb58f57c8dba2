//! Execution reports: what the engine hands back alongside every answer.

use crate::engine::cost::PartitionDecision;
use crate::engine::QueryOutput;
use wazi_storage::ExecStats;

/// The result of executing one [`crate::engine::Query`]: the answer itself,
/// the work counters and phase timings the index charged while producing it,
/// and the end-to-end wall-clock latency observed by the engine.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryReport {
    /// The answer, variant-matched to the executed plan.
    pub output: QueryOutput,
    /// Work counters and projection/scan phase timings (Figures 9 and 13).
    pub stats: ExecStats,
    /// End-to-end wall-clock latency in nanoseconds, measured by the engine
    /// around the index call. Zero for range queries executed through the
    /// fused batch kernel, whose wall clock is only attributable to the
    /// batch as a whole ([`BatchReport::latency_ns`]).
    pub latency_ns: u64,
}

/// The result of executing a batch of queries.
///
/// Per-query answers keep their input order regardless of how the engine
/// scheduled them internally. Work accounting is split into two levels:
/// every report carries the counters attributable to its own query, while
/// `shared_stats` holds work the fused kernels performed once on behalf of
/// several queries (page visits of shared pages, batch-level skipping). The
/// engine partitions a fused batch by plan type — range plans walked and
/// point probes located through the [`crate::RangeBatchKernel`], kNN plans
/// through the shared expanding-ring sweep — so the shared work is also
/// broken down per partition
/// (`range_shared_stats` / `point_shared_stats` / `knn_shared_stats`, whose
/// merge equals `shared_stats`). On the sequential path every shared field
/// is zero and [`BatchReport::merged_stats`] equals the merge of the
/// per-query stats.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport {
    /// One report per input query, in input order.
    pub reports: Vec<QueryReport>,
    /// Work charged to the batch as a whole rather than to any single query
    /// (only the fused kernels produce nonzero shared stats); the merge of
    /// the three per-partition shared fields below.
    pub shared_stats: ExecStats,
    /// Shared work of the fused range partition (one scan of each distinct
    /// page serving every fused range plan).
    pub range_shared_stats: ExecStats,
    /// Shared work of the fused point-probe partition (each located unit
    /// fetched once per batch, however many probes share it).
    pub point_shared_stats: ExecStats,
    /// Shared work of the fused kNN partition (each candidate page scanned
    /// once per expanding ring, however many plans share it).
    pub knn_shared_stats: ExecStats,
    /// Wall-clock latency of the whole batch in nanoseconds.
    pub latency_ns: u64,
    /// Number of range queries that were executed through the fused
    /// batch kernel (zero on the sequential path).
    pub fused_queries: usize,
    /// Number of point probes that were executed through the fused
    /// batch kernel (zero on the sequential path).
    pub fused_points: usize,
    /// Number of kNN plans that were executed through the shared
    /// expanding-ring sweep (zero on the sequential path).
    pub fused_knn: usize,
    /// Number of chunks the fused range scan was cut into (zero
    /// on the sequential path, one for the single-threaded fused scan,
    /// the planned shard count under
    /// [`crate::BatchStrategy::FusedParallel`]).
    pub shards_used: usize,
    /// The shard counts [`crate::BatchStrategy::Auto`] picked per partition,
    /// with the model's predicted costs and the partition's measured
    /// wall-clock. Empty (every field `None`) under a fixed strategy, and
    /// for partitions where no choice existed (fewer than two members, or
    /// no kernel).
    pub strategy_chosen: StrategyDecisions,
}

/// The per-partition strategy decisions of one Auto-scheduled batch — the
/// engine's answer to "what did the cost model do?". See
/// [`crate::BatchStrategy::Auto`] and the [`crate::engine::cost`] module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StrategyDecisions {
    /// Decision for the range partition, when one was made.
    pub range: Option<PartitionDecision>,
    /// Decision for the point-probe partition, when one was made.
    pub point: Option<PartitionDecision>,
    /// Decision for the kNN partition, when one was made.
    pub knn: Option<PartitionDecision>,
}

impl StrategyDecisions {
    /// Iterates the decisions that were actually made, labelled by
    /// partition kind (`"range"` / `"point"` / `"knn"`).
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, PartitionDecision)> {
        [
            ("range", self.range),
            ("point", self.point),
            ("knn", self.knn),
        ]
        .into_iter()
        .filter_map(|(kind, decision)| decision.map(|d| (kind, d)))
    }
}

impl BatchReport {
    /// Number of queries in the batch.
    pub fn len(&self) -> usize {
        self.reports.len()
    }

    /// Returns `true` for an empty batch.
    pub fn is_empty(&self) -> bool {
        self.reports.is_empty()
    }

    /// Sound aggregate of the batch's work: the per-query counters merged
    /// component-wise ([`ExecStats::merge`]) plus the batch-level shared
    /// work. Comparing this quantity between the sequential and the fused
    /// strategy shows exactly what fusion saves (shared pages scanned once).
    pub fn merged_stats(&self) -> ExecStats {
        let mut merged = self.shared_stats;
        for report in &self.reports {
            merged.merge(&report.stats);
        }
        merged
    }

    /// Total result points across the batch.
    pub fn total_results(&self) -> u64 {
        self.reports.iter().map(|r| r.output.result_count()).sum()
    }

    /// Total queries (of any plan type) executed through a fused kernel.
    pub fn total_fused(&self) -> usize {
        self.fused_queries + self.fused_points + self.fused_knn
    }

    /// Total bounding boxes checked while executing the batch, per-query
    /// and shared work combined.
    ///
    /// This is the invariant quantity for comparing strategies: a fused
    /// kernel shares page *visits* but must never make any query check more
    /// bounding boxes than its own sequential walk would, so for
    /// [`crate::BatchStrategy::Fused`] this total is at most the
    /// [`crate::BatchStrategy::Sequential`] total on the same batch
    /// (asserted cross-index by the facade test-suite).
    pub fn bbs_checked(&self) -> u64 {
        self.merged_stats().bbs_checked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::QueryOutput;

    fn report(results: u64, pages: u64) -> QueryReport {
        QueryReport {
            output: QueryOutput::Count(results),
            stats: ExecStats {
                results,
                pages_scanned: pages,
                ..Default::default()
            },
            latency_ns: 10,
        }
    }

    #[test]
    fn merged_stats_include_shared_work() {
        let range_shared = ExecStats {
            pages_scanned: 3,
            ..Default::default()
        };
        let point_shared = ExecStats {
            pages_scanned: 1,
            ..Default::default()
        };
        let batch = BatchReport {
            reports: vec![report(3, 2), report(5, 1)],
            shared_stats: ExecStats {
                pages_scanned: 4,
                ..Default::default()
            },
            range_shared_stats: range_shared,
            point_shared_stats: point_shared,
            knn_shared_stats: ExecStats::default(),
            latency_ns: 100,
            fused_queries: 2,
            fused_points: 1,
            fused_knn: 0,
            shards_used: 1,
            strategy_chosen: StrategyDecisions::default(),
        };
        assert_eq!(batch.len(), 2);
        assert!(!batch.is_empty());
        assert_eq!(batch.total_fused(), 3);
        let merged = batch.merged_stats();
        assert_eq!(merged.pages_scanned, 7);
        assert_eq!(merged.results, 8);
        assert_eq!(batch.total_results(), 8);
    }
}
