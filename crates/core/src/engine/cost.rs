//! The shard-count cost model behind [`crate::BatchStrategy::Auto`].
//!
//! The paper's thesis is that a cost-aware index adapts its *layout* to the
//! workload; this module applies the same discipline one level up and adapts
//! the *execution* to the batch. Auto runs every range partition fused —
//! the per-query loop would do the same walks and the same page scans in
//! another order — and asks one question: how many shards. The engine
//! walks a range batch once ([`RangeBatchKernel::walk`]) and sums the
//! record into the batch's footprint ([`WalkRecord::footprint`]): the
//! bounding-box checks, page visits, distinct pages and points the run
//! will charge. With the host's parallelism it feeds a calibrated cost
//! model that picks one shard or the parallel cut, and the same record is
//! then the plan the fused run executes. Every fused kernel is page-backed
//! — it visits pages (or leaves, grid columns, cracked pieces) — so one set
//! of constants prices them all; an index with no fetch to share
//! advertises no kernel and runs the per-query loop.
//!
//! The footprint is the walk, not the Z-interval. A WaZI range query scans
//! only the leaves whose boxes it overlaps; look-ahead pointers (§5) jump it
//! over the rest of `[leaf(BL), leaf(TR)]`. Pricing every address of the
//! interval as a fetch and every point under it as a comparison overstated
//! a scattered batch's scan by an order of magnitude, and made the model
//! spawn threads for batches one thread finishes sooner.
//!
//! The model never changes answers — every shard count is output- and
//! counter-equivalent by the kernel contract — so a misprediction costs
//! wall-clock only. Its constants live in one small fitted table
//! ([`CostConstants::BAKED`]) regenerated by the bench harness's
//! `reproduce calibrate` experiment, which re-measures the constants it can
//! fit and asserts the baked values have not rotted.
//!
//! [`RangeBatchKernel::walk`]: super::RangeBatchKernel::walk
//! [`WalkRecord::footprint`]: super::WalkRecord::footprint

/// Calibrated unit costs of a fused range kernel, in nanoseconds.
///
/// The constants are deliberately coarse — the decision they drive
/// compares quantities that differ by integer factors (a scan body split
/// across workers against the spawns that split it), so being within ~2x
/// of the truth preserves every decision boundary. `reproduce calibrate`
/// re-fits each constant and fails CI when a baked value drifts beyond the
/// tolerated factor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostConstants {
    /// Cost of fetching and scanning one unit (page, leaf, column, piece).
    pub page_ns: f64,
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
        page_ns: 150.0,
        point_ns: 1.4,
        spawn_ns: 45_000.0,
        parallel_efficiency: 0.7,
    };
}

/// The footprint of one range batch, summed from its walk record
/// ([`super::WalkRecord::footprint`]): what the batch's schedules will
/// charge, computed without charging anything. The cost model prices its
/// distinct pages and points; its page visits less its distinct pages are
/// the sharing [`PartitionDecision::shared_visits`] records.
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

/// The model's predicted cost of a range partition's fused run, on one
/// shard and on the best parallel cut, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostEstimate {
    /// Predicted cost of the fused scan on one shard.
    pub fused_ns: u64,
    /// Predicted cost of the sharded parallel scan at
    /// [`CostEstimate::shards`] shards; `None` when the host has a single
    /// worker (parallelism is never a candidate there).
    pub fused_parallel_ns: Option<u64>,
    /// Shard count the parallel estimate assumes (the best candidate the
    /// model evaluated; `1` when parallelism was not a candidate).
    pub shards: usize,
}

/// One recorded decision: how many shards the engine cut a partition's
/// fused run into, the page visits its walks share, the model's predicted
/// costs (range partitions only — point and kNN partitions fuse on one
/// shard without it, and carry `None`), and the measured wall-clock of
/// executing the partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionDecision {
    /// Number of queries in the partition.
    pub queries: usize,
    /// Shards the partition's fused run was planned with; 1 is one fused
    /// shard, scanned on the calling thread.
    pub shards: usize,
    /// Page visits the partition's walks share, `page_visits -
    /// distinct_pages` of the footprint: the fetches one fused scan saves
    /// over each query scanning alone. 0 for point and kNN partitions.
    pub shared_visits: u64,
    /// Predicted candidate costs, when the range cost model produced them.
    pub estimate: Option<CostEstimate>,
    /// Measured wall-clock of the partition's execution in nanoseconds
    /// (excluding the decision itself).
    pub actual_ns: u64,
}

/// Predicts the cost of a range partition's fused run on one shard and on
/// every parallel cut, keeping the cheapest cut.
///
/// Only the scan body divides across workers, so the formulas price just
/// what the shard count changes:
///
/// * **one shard** — `distinct_pages · page_ns + points · point_ns`: one
///   fetch per distinct page, and the Eq. 5 point charge.
/// * **parallel** — the same scan body divided across workers with
///   imperfect efficiency, plus a spawn cost per shard; only a candidate
///   when the host has more than one worker.
pub fn estimate_range_costs(
    stats: &RangeBatchStats,
    workers: usize,
    c: &CostConstants,
) -> CostEstimate {
    let scan = stats.distinct_pages as f64 * c.page_ns + stats.points as f64 * c.point_ns;
    let mut parallel: Option<(f64, usize)> = None;
    if workers >= 2 {
        for shards in [2usize, 4, 8, 16] {
            // A batch with fewer requests than shards has too little work
            // to split.
            if shards > workers.saturating_mul(2) || shards > stats.requests {
                break;
            }
            let effective = 1.0 + (shards.min(workers) as f64 - 1.0) * c.parallel_efficiency;
            let cost = scan / effective + c.spawn_ns * shards as f64;
            if parallel.is_none_or(|(best, _)| cost < best) {
                parallel = Some((cost, shards));
            }
        }
    }
    CostEstimate {
        fused_ns: scan.max(0.0) as u64,
        fused_parallel_ns: parallel.map(|(cost, _)| cost.max(0.0) as u64),
        shards: parallel.map_or(1, |(_, shards)| shards),
    }
}

/// The shard count of an estimate: the parallel cut when it is predicted
/// strictly cheaper than one shard, one shard otherwise. A tie means the
/// model sees nothing to gain, and one shard spawns no thread.
pub fn choose_range_shards(estimate: &CostEstimate) -> usize {
    match estimate.fused_parallel_ns {
        Some(parallel_ns) if parallel_ns < estimate.fused_ns => estimate.shards,
        _ => 1,
    }
}

/// Runs the full range decision: estimate one shard and every parallel
/// cut, pick the shard count. `workers` is the host parallelism (injected
/// so decision tests are host-independent).
pub fn decide_range_shards(
    stats: &RangeBatchStats,
    workers: usize,
    constants: &CostConstants,
) -> (usize, CostEstimate) {
    let estimate = estimate_range_costs(stats, workers, constants);
    (choose_range_shards(&estimate), estimate)
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
    fn tiny_disjoint_batch_runs_on_one_shard() {
        // Three requests visiting one page each, all different: nothing
        // for a thread to take over, so the batch stays on one shard.
        let stats = RangeBatchStats {
            checks: 3,
            page_visits: 3,
            distinct_pages: 3,
            points: 9,
            requests: 3,
        };
        for workers in [1usize, 8] {
            let (shards, estimate) = decide_range_shards(&stats, workers, &CostConstants::BAKED);
            assert_eq!(shards, 1, "workers = {workers}");
            assert!(estimate
                .fused_parallel_ns
                .is_none_or(|p| p >= estimate.fused_ns));
        }
    }

    #[test]
    fn overlapping_batch_prefers_fusion_on_a_single_core_host() {
        // 2000 stacked queries over 40 addresses: one shard, and no
        // parallel candidate on a single worker.
        let stats = stacked(2_000, 40, 200);
        let (shards, estimate) = decide_range_shards(&stats, 1, &CostConstants::BAKED);
        assert_eq!(shards, 1);
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
        let (shards, estimate) = decide_range_shards(&stats, 8, &CostConstants::BAKED);
        assert!(
            shards >= 2,
            "expected parallel fusion, model chose {shards} shard(s)"
        );
        assert_eq!(shards, estimate.shards);
        assert!(estimate.fused_parallel_ns.unwrap() < estimate.fused_ns);
    }

    #[test]
    fn single_core_hosts_never_choose_parallel() {
        for stats in [
            stacked(10, 4, 10),
            stacked(2_000, 40, 200),
            stacked(5_000, 500, 5_000),
        ] {
            let (shards, estimate) = decide_range_shards(&stats, 1, &CostConstants::BAKED);
            assert_eq!(shards, 1, "chose {shards} shards on a single-core host");
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
        assert_eq!(decision.shards, 1);
        assert_eq!(report.shards_used, 1);
        let plans: Vec<Query> = (0..300).map(|i| Query::knn(grid(i * 13), 4)).collect();
        let report = engine.execute_batch(&plans).unwrap();
        let decision = report.strategy_chosen.knn.expect("Auto decides kNN");
        assert_eq!(decision.shards, 1);
        assert_eq!(report.shards_used, 1);
    }

    #[test]
    fn ties_break_toward_the_simpler_strategy() {
        let estimate = CostEstimate {
            fused_ns: 100,
            fused_parallel_ns: Some(100),
            shards: 4,
        };
        assert_eq!(choose_range_shards(&estimate), 1);
        let estimate = CostEstimate {
            fused_parallel_ns: Some(99),
            ..estimate
        };
        assert_eq!(choose_range_shards(&estimate), 4);
    }

    /// The structure a re-bake must keep: every unit cost is positive, and
    /// each extra worker adds a fraction of a worker.
    #[test]
    fn baked_constants_keep_the_model_structure() {
        let c = CostConstants::BAKED;
        assert!(c.parallel_efficiency > 0.0 && c.parallel_efficiency <= 1.0);
        for value in [c.page_ns, c.point_ns, c.spawn_ns] {
            assert!(value > 0.0, "{c:?}");
        }
    }
}
