//! The execution-strategy cost model behind [`crate::BatchStrategy::Auto`].
//!
//! The paper's thesis is that a cost-aware index adapts its *layout* to the
//! workload; this module applies the same discipline one level up and adapts
//! the *execution strategy* to the batch. The engine walks a range batch
//! once ([`RangeBatchKernel::walk`]) and sums the record into the batch's
//! footprint ([`WalkRecord::footprint`]): the bounding-box checks, page
//! visits, distinct pages and points the batch's schedules will charge.
//! With the host's parallelism it feeds a calibrated cost model that picks
//! Sequential vs Fused vs FusedParallel (and the shard count) per
//! partition, and the same record is then the plan the chosen schedule
//! executes. Every fused kernel is page-backed — it visits pages (or
//! leaves, grid columns, cracked pieces) whose fetches fusion shares — so
//! one set of constants prices them all; an index with no fetch to share
//! advertises no kernel and runs the per-query loop.
//!
//! The footprint is the walk, not the Z-interval. A WaZI range query scans
//! only the leaves whose boxes it overlaps; look-ahead pointers (§5) jump it
//! over the rest of `[leaf(BL), leaf(TR)]`. Pricing every address of the
//! interval as a fetch and every point under it as a comparison overstated
//! a scattered batch's sequential cost by an order of magnitude, and made
//! the model spawn threads for batches one thread finishes sooner.
//!
//! The model never changes answers — every strategy is output- and
//! counter-equivalent by the kernel contract — so a misprediction costs
//! wall-clock only. Its constants live in one small fitted table
//! ([`CostConstants::BAKED`]) regenerated by the bench harness's
//! `reproduce calibrate` experiment, which re-measures every constant and
//! asserts the baked values have not rotted.
//!
//! [`RangeBatchKernel::walk`]: super::RangeBatchKernel::walk
//! [`WalkRecord::footprint`]: super::WalkRecord::footprint

/// Calibrated unit costs of a fused range kernel, in nanoseconds.
///
/// The constants are deliberately coarse — the decisions they drive compare
/// quantities that differ by integer factors (shared fetches vs per-request
/// setup), so being within ~2x of the truth preserves every decision
/// boundary. `reproduce calibrate` re-fits each constant and fails CI when a
/// baked value drifts beyond the tolerated factor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostConstants {
    /// Per-query overhead of the sequential loop (plan dispatch, stats
    /// bookkeeping, one `Instant` pair).
    pub seq_query_ns: f64,
    /// Per-request overhead of a fused scan (grouping the walk record by
    /// unit, dispatching each unit's scans, merging). Strictly above [`CostConstants::seq_query_ns`]:
    /// fusion pays *more* per request and wins back via shared fetches, so a
    /// batch with nothing to share always prefers the sequential loop.
    pub fused_query_ns: f64,
    /// Cost of fetching and scanning one unit (page, leaf, column, piece).
    pub page_ns: f64,
    /// Cost of one per-request bounding-box check.
    pub check_ns: f64,
    /// Cost of one point comparison in the scan.
    pub point_ns: f64,
    /// Cost of spawning one scoped worker thread.
    pub spawn_ns: f64,
    /// Fraction of ideal speedup each additional worker contributes
    /// (memory-bandwidth sharing, merge overhead); in `(0, 1]`.
    pub parallel_efficiency: f64,
}

impl CostConstants {
    /// The committed fitted constants (last regenerated by `reproduce
    /// calibrate` at the default 100k-point scale, which prints the fitted
    /// value beside each baked one and asserts the baked values are still
    /// within tolerance).
    pub const BAKED: CostConstants = CostConstants {
        seq_query_ns: 320.0,
        fused_query_ns: 520.0,
        page_ns: 150.0,
        check_ns: 4.0,
        point_ns: 1.4,
        spawn_ns: 45_000.0,
        parallel_efficiency: 0.7,
    };
}

/// The footprint of one range batch, summed from its walk record
/// ([`super::WalkRecord::footprint`]): what the batch's schedules will
/// charge, computed without charging anything. Everything the cost model
/// prices.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RangeBatchStats {
    /// Bounding-box checks of all walks together: every per-request
    /// relevance test, paid alike by the sequential loop and the fused
    /// scan.
    pub checks: u64,
    /// Page visits of all walks together, with multiplicity: the fetches
    /// the *sequential* loop pays.
    pub page_visits: u64,
    /// Distinct pages the walks visit: the fetches one *fused* scan pays.
    /// `page_visits - distinct_pages` is what fusion shares.
    pub distinct_pages: u64,
    /// Points on the visited pages, with multiplicity: the Eq. 5 point
    /// charge, paid alike by both schedules.
    pub points: u64,
    /// Number of requests in the batch.
    pub requests: usize,
}

/// The strategy the cost model picked for one partition of a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChosenStrategy {
    /// Run the partition through the per-query sequential loop.
    Sequential,
    /// Run the partition through the fused kernel as one shard, scanned on
    /// the calling thread.
    Fused,
    /// Run the partition through the same fused kernel with its distinct
    /// units cut into chunks scanned on worker threads.
    FusedParallel {
        /// Planned shard count.
        shards: usize,
    },
}

impl ChosenStrategy {
    /// The shard count a fused run of this choice uses: `shards` for
    /// [`ChosenStrategy::FusedParallel`], one otherwise.
    pub(crate) fn shards(&self) -> usize {
        match self {
            ChosenStrategy::FusedParallel { shards } => *shards,
            _ => 1,
        }
    }
}

impl std::fmt::Display for ChosenStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChosenStrategy::Sequential => write!(f, "sequential"),
            ChosenStrategy::Fused => write!(f, "fused"),
            ChosenStrategy::FusedParallel { shards } => write!(f, "fused-parallel/{shards}"),
        }
    }
}

/// The model's predicted cost of every candidate strategy for one range
/// partition, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostEstimate {
    /// Predicted cost of the sequential per-query loop.
    pub sequential_ns: u64,
    /// Predicted cost of the single-threaded fused scan.
    pub fused_ns: u64,
    /// Predicted cost of the sharded parallel scan at
    /// [`CostEstimate::shards`] shards; `None` when the host has a single
    /// worker (parallelism is never a candidate there).
    pub fused_parallel_ns: Option<u64>,
    /// Shard count the parallel estimate assumes (the best candidate the
    /// model evaluated; `1` when parallelism was not a candidate).
    pub shards: usize,
}

/// One recorded strategy decision: what the engine chose for a partition,
/// the model's predicted costs (when the quantitative model ran — point and
/// kNN partitions, fused without it, carry `None`), and the measured wall-clock
/// of executing the partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionDecision {
    /// Number of queries in the partition.
    pub queries: usize,
    /// The strategy the partition executed under.
    pub chosen: ChosenStrategy,
    /// Predicted candidate costs, when the range cost model produced them.
    pub estimate: Option<CostEstimate>,
    /// Measured wall-clock of the partition's execution in nanoseconds
    /// (excluding the decision itself).
    pub actual_ns: u64,
}

/// Predicts the cost of every candidate strategy for one range partition.
///
/// The formulas price the batch's walk footprint and charge identical
/// terms to identical work, so the decision reduces to the terms that
/// actually differ:
///
/// * **sequential** — `n · seq_query_ns + page_visits · page_ns +
///   checks · check_ns + points · point_ns`: one fetch per page visit.
/// * **fused** — `n · fused_query_ns + distinct_pages · page_ns +
///   checks · check_ns + points · point_ns`: one fetch per distinct page.
///   Fusion wins once the shared fetches
///   `(page_visits - distinct_pages) · page_ns` outweigh the extra
///   per-request setup.
/// * **parallel** — the fused scan body divides across workers with
///   imperfect efficiency plus a spawn cost per shard; only a candidate
///   when the host has more than one worker.
pub fn estimate_range_costs(
    stats: &RangeBatchStats,
    workers: usize,
    c: &CostConstants,
) -> CostEstimate {
    let n = stats.requests as f64;
    let checks = stats.checks as f64 * c.check_ns;
    let points = stats.points as f64;
    let sequential =
        n * c.seq_query_ns + stats.page_visits as f64 * c.page_ns + checks + points * c.point_ns;
    let scan = stats.distinct_pages as f64 * c.page_ns + checks + points * c.point_ns;
    let fused = n * c.fused_query_ns + scan;
    let mut parallel: Option<(f64, usize)> = None;
    if workers >= 2 {
        for shards in [2usize, 4, 8, 16] {
            // A batch with fewer requests than shards has too little work
            // to split.
            if shards > workers.saturating_mul(2) || shards > stats.requests {
                break;
            }
            let effective = 1.0 + (shards.min(workers) as f64 - 1.0) * c.parallel_efficiency;
            let cost = n * c.fused_query_ns + scan / effective + c.spawn_ns * shards as f64;
            if parallel.is_none_or(|(best, _)| cost < best) {
                parallel = Some((cost, shards));
            }
        }
    }
    CostEstimate {
        sequential_ns: sequential.max(0.0) as u64,
        fused_ns: fused.max(0.0) as u64,
        fused_parallel_ns: parallel.map(|(cost, _)| cost.max(0.0) as u64),
        shards: parallel.map_or(1, |(_, shards)| shards),
    }
}

/// Picks the cheapest candidate of an estimate, breaking ties toward the
/// simpler strategy (sequential before fused before parallel): equal
/// predictions mean the model sees nothing to gain, and the simpler path
/// has the least machinery to go wrong.
pub fn choose_range_strategy(estimate: &CostEstimate) -> ChosenStrategy {
    let mut best = (estimate.sequential_ns, ChosenStrategy::Sequential);
    if estimate.fused_ns < best.0 {
        best = (estimate.fused_ns, ChosenStrategy::Fused);
    }
    if let Some(parallel_ns) = estimate.fused_parallel_ns {
        if parallel_ns < best.0 {
            best = (
                parallel_ns,
                ChosenStrategy::FusedParallel {
                    shards: estimate.shards,
                },
            );
        }
    }
    best.1
}

/// Runs the full range decision: estimate every candidate, pick the
/// cheapest. `workers` is the host parallelism (injected so decision tests
/// are host-independent).
pub fn decide_range_strategy(
    stats: &RangeBatchStats,
    workers: usize,
    constants: &CostConstants,
) -> (ChosenStrategy, CostEstimate) {
    let estimate = estimate_range_costs(stats, workers, constants);
    (choose_range_strategy(&estimate), estimate)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Stats of a heavily overlapping batch: `n` requests each visiting
    /// the same `width` pages of `points_per_page` points.
    fn stacked(n: usize, width: u64, points_per_page: u64) -> RangeBatchStats {
        let visits = n as u64 * width;
        RangeBatchStats {
            checks: visits,
            page_visits: visits,
            distinct_pages: width,
            points: visits * points_per_page,
            requests: n,
        }
    }

    #[test]
    fn tiny_disjoint_batch_prefers_sequential() {
        // Three requests visiting one page each, all different: nothing to
        // share, so the fused scan's extra per-request setup can only lose.
        let stats = RangeBatchStats {
            checks: 3,
            page_visits: 3,
            distinct_pages: 3,
            points: 9,
            requests: 3,
        };
        for workers in [1usize, 8] {
            let (chosen, estimate) = decide_range_strategy(&stats, workers, &CostConstants::BAKED);
            assert_eq!(chosen, ChosenStrategy::Sequential, "workers = {workers}");
            assert!(estimate.sequential_ns < estimate.fused_ns);
        }
    }

    #[test]
    fn overlapping_batch_prefers_fusion_on_a_single_core_host() {
        // 2000 stacked queries over 40 addresses: sequential refetches every
        // page 2000 times, the fused scan once.
        let stats = stacked(2_000, 40, 200);
        let (chosen, estimate) = decide_range_strategy(&stats, 1, &CostConstants::BAKED);
        assert_eq!(chosen, ChosenStrategy::Fused);
        assert!(estimate.fused_ns < estimate.sequential_ns);
        assert_eq!(
            estimate.fused_parallel_ns, None,
            "a single worker never makes parallelism a candidate"
        );
    }

    #[test]
    fn big_overlapping_batch_prefers_parallel_fusion_with_workers() {
        // The same stacked batch with real scan work and 8 workers: the
        // scan divides across shards and wins despite the spawn cost.
        let stats = stacked(4_000, 64, 2_000);
        let (chosen, estimate) = decide_range_strategy(&stats, 8, &CostConstants::BAKED);
        match chosen {
            ChosenStrategy::FusedParallel { shards } => {
                assert!(shards >= 2);
                assert!(estimate.fused_parallel_ns.unwrap() < estimate.fused_ns);
            }
            other => panic!("expected parallel fusion, model chose {other}"),
        }
    }

    #[test]
    fn single_core_hosts_never_choose_parallel() {
        for stats in [
            stacked(10, 4, 10),
            stacked(2_000, 40, 200),
            stacked(5_000, 500, 5_000),
        ] {
            let (chosen, estimate) = decide_range_strategy(&stats, 1, &CostConstants::BAKED);
            assert!(
                !matches!(chosen, ChosenStrategy::FusedParallel { .. }),
                "chose {chosen} on a single-core host"
            );
            assert_eq!(estimate.fused_parallel_ns, None);
        }
    }

    #[test]
    fn class_rules_route_point_and_knn_partitions() {
        // Point and kNN partitions fuse on one shard at any size: each probe
        // reads at most one unit, and ring sweeps share candidate pages.
        use crate::{Query, QueryEngine, ZIndex};
        use wazi_geom::Point;
        let grid = |i: usize| Point::new((i % 64) as f64 / 64.0, (i / 64) as f64 / 64.0);
        let index = ZIndex::build_base((0..4_096).map(grid).collect());
        let engine = QueryEngine::new(&index);
        let probes: Vec<Query> = (0..3_000).map(|i| Query::point(grid(i * 7))).collect();
        let report = engine.execute_batch(&probes).unwrap();
        let decision = report.strategy_chosen.point.expect("Auto decides points");
        assert_eq!(decision.chosen, ChosenStrategy::Fused);
        assert_eq!(report.shards_used, 1);
        let plans: Vec<Query> = (0..300).map(|i| Query::knn(grid(i * 13), 4)).collect();
        let report = engine.execute_batch(&plans).unwrap();
        let decision = report.strategy_chosen.knn.expect("Auto decides kNN");
        assert_eq!(decision.chosen, ChosenStrategy::Fused);
        assert_eq!(report.shards_used, 1);
    }

    #[test]
    fn ties_break_toward_the_simpler_strategy() {
        let estimate = CostEstimate {
            sequential_ns: 100,
            fused_ns: 100,
            fused_parallel_ns: Some(100),
            shards: 4,
        };
        assert_eq!(choose_range_strategy(&estimate), ChosenStrategy::Sequential);
        let estimate = CostEstimate {
            fused_ns: 99,
            ..estimate
        };
        assert_eq!(choose_range_strategy(&estimate), ChosenStrategy::Fused);
    }

    /// The structure a re-bake must keep: fusion pays more per request
    /// than the sequential loop (so a batch with nothing to share never
    /// fuses), and each extra worker adds a fraction of a worker.
    #[test]
    fn baked_constants_keep_the_model_structure() {
        let c = CostConstants::BAKED;
        assert!(c.fused_query_ns > c.seq_query_ns);
        assert!(c.parallel_efficiency > 0.0 && c.parallel_efficiency <= 1.0);
        for value in [c.page_ns, c.check_ns, c.point_ns, c.spawn_ns] {
            assert!(value > 0.0, "{c:?}");
        }
    }

    #[test]
    fn chosen_strategy_displays_like_the_bench_labels() {
        assert_eq!(ChosenStrategy::Sequential.to_string(), "sequential");
        assert_eq!(ChosenStrategy::Fused.to_string(), "fused");
        assert_eq!(
            ChosenStrategy::FusedParallel { shards: 4 }.to_string(),
            "fused-parallel/4"
        );
    }
}
