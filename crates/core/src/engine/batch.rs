//! The fused batch-execution seam between the engine and the indexes.
//!
//! The engine speaks to indexes through [`crate::SpatialIndex`], one query
//! at a time. An index that can do better on a *batch* of range queries —
//! WaZI scans each relevant page once per batch instead of once per
//! overlapping query — advertises the capability by returning itself from
//! [`crate::SpatialIndex::range_batch_kernel`] and implementing
//! [`RangeBatchKernel`]. The engine's fused strategy routes every range
//! plan of a batch through the kernel and falls back to the sequential loop
//! for indexes without one, so fusion is purely an optimization: answers
//! are identical either way.
//!
//! The kernel protocol has two phases — projecting every request onto a
//! one-dimensional sweep address space ([`RangeBatchKernel::project_batch`])
//! and sweeping the requests owned by any contiguous slice of that space
//! independently ([`RangeBatchKernel::sweep_shard`]) — and one driver,
//! [`run_range_batch`]: project, plan shard bounds, sweep, merge. A plain
//! fused sweep is the one-shard plan swept on the calling thread. Ownership
//! is by entry address ([`BatchProjection::owned_by`]): the shard containing
//! a request's first address sweeps the request's whole interval, so every
//! request's walk is its solo sequential walk and shards never exchange skip
//! state. Because ownership partitions the requests, the driver can sweep
//! shards on worker threads and merge the partial responses
//! deterministically: point outputs concatenate in shard order (each
//! request's output comes wholly from its owning shard), counts and counters
//! sum. For WaZI the address space is the leaf list, for Flood the column
//! grid, for the packed R-trees (STR/CUR) the clustered page list, for
//! QUASII the cracked x-slice list, and for the sorted Z-order array the
//! entry array.
//!
//! A third, optional phase reports the batch's walk footprint
//! ([`RangeBatchKernel::footprint`]): the checks, page visits, distinct
//! pages and points the requests' sequential walks would charge, and one
//! work weight per request. The cost model prices it and the shard planner
//! cuts the sorted entry addresses by its weights. The interval alone
//! overstates a walk that skips (§5), so the Z-index and the packed R-trees
//! walk the batch exactly, without touching a page.

use std::sync::OnceLock;

use wazi_geom::{Point, Rect};
use wazi_storage::ExecStats;

use super::cost::{KernelClass, RangeBatchStats};

/// One range request of a fused batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RangeBatchRequest {
    /// The query rectangle.
    pub rect: Rect,
    /// Whether the matching points must be materialized. Counting and
    /// streaming plans set this to `false`: the kernel only tallies matches.
    pub collect: bool,
}

/// Per-request answer of a fused batch.
#[derive(Debug, Clone, PartialEq)]
pub enum RangeBatchOutput {
    /// Materialized matches of a collecting request, in the index's scan
    /// order (identical to the order the sequential path produces).
    Points(Vec<Point>),
    /// Match count of a non-collecting request.
    Count(u64),
}

/// The kernel's answer to a batch: parallel to the request slice.
#[derive(Debug, Clone, PartialEq)]
pub struct RangeBatchResponse {
    /// One output per request, in request order.
    pub outputs: Vec<RangeBatchOutput>,
    /// Work attributable to a single request (its corner projections, its
    /// bounding-box checks, its point comparisons and results).
    pub per_query: Vec<ExecStats>,
    /// Work the kernel performed once on behalf of the whole batch: visits
    /// of pages shared by several requests, batch-level skipping, and the
    /// kernel's phase timings.
    pub shared: ExecStats,
}

impl RangeBatchResponse {
    /// A zero-work response shaped for `requests`: empty point vectors for
    /// collecting requests, zero counts otherwise, default stats. Kernels
    /// and the shard merger start from this shape and fill it in.
    pub fn zeroed(requests: &[RangeBatchRequest]) -> Self {
        Self {
            outputs: requests
                .iter()
                .map(|r| {
                    if r.collect {
                        RangeBatchOutput::Points(Vec::new())
                    } else {
                        RangeBatchOutput::Count(0)
                    }
                })
                .collect(),
            per_query: vec![ExecStats::default(); requests.len()],
            shared: ExecStats::default(),
        }
    }
}

/// Inclusive interval of sweep addresses a request's fused scan covers
/// (leaf indices for the Z-index, grid columns for Flood).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepInterval {
    /// First address the request's sweep may touch.
    pub lo: u32,
    /// Last address the request's sweep may touch (inclusive).
    pub hi: u32,
}

/// A contiguous half-open slice `[start, end)` of a kernel's sweep address
/// space, assigned to one worker by the engine's shard planner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardBounds {
    /// First address of the shard.
    pub start: u32,
    /// One past the last address of the shard.
    pub end: u32,
}

/// The projection phase of a fused batch: every request mapped onto the
/// kernel's sweep address space, with the work that mapping cost.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchProjection {
    /// One sweep interval per request, in request order.
    pub intervals: Vec<SweepInterval>,
    /// Per-request projection work (e.g. WaZI's Algorithm-1 descents),
    /// charged exactly as the sequential path would charge it.
    pub per_query: Vec<ExecStats>,
    /// Wall-clock time the projection took, in nanoseconds; merged into the
    /// response's shared projection-phase time.
    pub elapsed_ns: u64,
}

impl BatchProjection {
    /// The requests a shard owns, as `(first address, request index)` pairs
    /// in ascending order — the order their walks join a sweep.
    ///
    /// Sharding is **owner-based**: a request belongs to the one shard whose
    /// bounds contain its interval's *first* address, and that shard sweeps
    /// the request over its whole interval — intervals are never split
    /// across shards. Each request's walk is therefore exactly its solo
    /// sequential walk, look-ahead jumps included, so per-request
    /// bounding-box checks and skip counts are identical whatever the shard
    /// count, and no skip-cursor state ever needs to be handed across a
    /// shard boundary (the zero-overhead cross-shard handoff). The price is
    /// that a page inside a crossing request's tail may be fetched by more
    /// than one shard; page visits remain bounded by the sequential loop's.
    pub fn owned_by(&self, bounds: ShardBounds) -> Vec<(u32, usize)> {
        // Sized for the one-shard run, which owns every request.
        let mut owned = Vec::with_capacity(self.intervals.len());
        owned.extend(
            self.intervals
                .iter()
                .enumerate()
                .filter(|(_, interval)| interval.lo >= bounds.start && interval.lo < bounds.end)
                .map(|(qi, interval)| (interval.lo, qi)),
        );
        owned.sort_unstable();
        owned
    }
}

/// Fused execution of many range requests in one pass over the index
/// (`Sync` because shard sweeps may execute concurrently against the same
/// index).
///
/// [`run_range_batch`] drives the protocol: one [`project_batch`] call, a
/// shard plan over the projected entry addresses (weighted by the
/// [`footprint`]'s per-request work), one [`sweep_shard`] call per shard,
/// and a deterministic merge. A plain fused sweep is the one-shard plan:
/// the hull of the projected intervals, swept on the calling thread.
///
/// # Contract
///
/// The merged answer must hold, for every request, exactly what the
/// sequential [`crate::SpatialIndex::range_query`] /
/// [`crate::SpatialIndex::range_count`] path returns — same points, same
/// order — for **every** disjoint partition of the projected span, while
/// being free to share physical work (page visits) between requests and to
/// account that shared work in [`RangeBatchResponse::shared`] rather than
/// per query. Per-request bounding-box checks and point comparisons must
/// not exceed what the sequential path would charge: fusion shares work, it
/// never adds any.
///
/// [`project_batch`]: RangeBatchKernel::project_batch
/// [`sweep_shard`]: RangeBatchKernel::sweep_shard
/// [`footprint`]: RangeBatchKernel::footprint
pub trait RangeBatchKernel: Sync {
    /// Maps every request onto the sweep address space, charging the
    /// projection work per request. Called once per batch, before any
    /// shard sweeps.
    fn project_batch(&self, requests: &[RangeBatchRequest]) -> BatchProjection;

    /// Runs the fused sweep for the requests `bounds` owns
    /// ([`BatchProjection::owned_by`]), each over its whole interval.
    /// Requests entering elsewhere contribute nothing; the returned response
    /// holds outputs and counters for exactly the requests this shard owns.
    fn sweep_shard(
        &self,
        requests: &[RangeBatchRequest],
        projection: &BatchProjection,
        bounds: ShardBounds,
    ) -> RangeBatchResponse;

    /// What the requests' sequential walks would charge, computed without
    /// charging anything: bounding-box checks, page visits, distinct pages,
    /// points on the visited pages, and one work weight per request. The
    /// cost model prices it under [`crate::BatchStrategy::Auto`] and the
    /// shard planner cuts by its weights. Never asked for by a one-shard
    /// run, whose plan is the hull whatever the weights.
    ///
    /// The default is the estimate from the intervals alone: every address
    /// of every interval checked, fetched and holding one point
    /// ([`RangeBatchStats::whole_intervals`]). Kernels that can walk a
    /// batch without running it override it.
    fn footprint(
        &self,
        _requests: &[RangeBatchRequest],
        projection: &BatchProjection,
    ) -> RangeBatchStats {
        RangeBatchStats::whole_intervals(&projection.intervals, |_| 1)
    }

    /// The kernel's physical profile, consumed by the engine's cost model
    /// under [`crate::BatchStrategy::Auto`]. The default declares a
    /// page-backed sweep (the common case: leaves, columns, clustered
    /// pages, cracked slices); kernels sweeping a flat in-memory array with
    /// no fetch to share override this with
    /// [`KernelClass::FlatArray`].
    fn cost_class(&self) -> KernelClass {
        KernelClass::PageBacked
    }
}

/// The hull `[lo, hi]` of a non-empty interval slice.
pub(crate) fn interval_hull(intervals: &[SweepInterval]) -> Option<(u32, u32)> {
    let first = intervals.first()?;
    let mut lo = first.lo;
    let mut hi = first.hi;
    for interval in &intervals[1..] {
        lo = lo.min(interval.lo);
        hi = hi.max(interval.hi);
    }
    Some((lo, hi))
}

/// Plans up to `shards` disjoint, contiguous, work-balanced shard bounds
/// covering the hull of the projected intervals. Returns the hull itself
/// for one shard (without reading `weights`), an empty plan for an empty
/// batch, and never more shards than distinct entry addresses.
///
/// `weights` holds one work weight per request
/// ([`RangeBatchStats::per_request`]). Under owner-based sharding a
/// request's *whole* walk executes in the shard containing its entry
/// address, so each entry address carries the summed weight of the walks
/// starting there (at least one per walk). Cuts fall between entry
/// addresses so that each shard carries roughly its fair share — a shard
/// owning few but heavy walks ends up as narrow as one owning many light
/// ones. `O(n log n)` for `n` requests, whatever the span.
///
/// The cut decision looks one entry ahead: a shard closes *before* an entry
/// whose weight would overshoot the fair share of the remaining work by
/// more than stopping short undershoots it — so a single heavy entry (a
/// stack of walks entering one leaf) lands in the shard where it balances
/// best instead of always being dragged into the current one.
pub(crate) fn plan_shard_bounds(
    intervals: &[SweepInterval],
    weights: &[u64],
    shards: usize,
) -> Vec<ShardBounds> {
    let Some((lo, hi)) = interval_hull(intervals) else {
        return Vec::new();
    };
    let hull = ShardBounds {
        start: lo,
        end: hi + 1,
    };
    if shards <= 1 {
        return vec![hull];
    }
    debug_assert_eq!(weights.len(), intervals.len());
    let mut entries: Vec<(u32, i64)> = intervals
        .iter()
        .zip(weights)
        .map(|(interval, &weight)| (interval.lo, weight.max(1) as i64))
        .collect();
    entries.sort_unstable_by_key(|&(entry, _)| entry);
    entries.dedup_by(|next, kept| {
        let same = next.0 == kept.0;
        if same {
            kept.1 += next.1;
        }
        same
    });
    let shards = shards.min(entries.len());
    let mut bounds = Vec::with_capacity(shards);
    let mut start = hull.start;
    let mut carried = 0i64;
    let mut remaining: i64 = entries.iter().map(|&(_, weight)| weight).sum();
    for (position, &(entry, weight)) in entries.iter().enumerate() {
        let shards_left = shards - bounds.len();
        // Cutting before this entry must leave one entry for each of the
        // remaining shards.
        let room_left = entries.len() - position >= shards_left - 1;
        if shards_left > 1 && carried > 0 && room_left {
            let target = (carried + remaining) / shards_left as i64;
            let overshoot = carried + weight - target;
            let undershoot = target - carried;
            if overshoot > 0 && overshoot > undershoot {
                bounds.push(ShardBounds { start, end: entry });
                start = entry;
                carried = 0;
            }
        }
        carried += weight;
        remaining -= weight;
    }
    bounds.push(ShardBounds {
        start,
        end: hull.end,
    });
    debug_assert!(bounds.len() <= shards);
    bounds
}

/// Worker threads the host can usefully run
/// ([`std::thread::available_parallelism`], one when unknown), read once
/// per process: the query reads cgroup files, which costs microseconds per
/// call. Feeds the oversubscription guards of the threaded range sweep and
/// point partition and the cost model's parallel-candidate gate — on a
/// single-core host the model never picks
/// [`crate::BatchStrategy::FusedParallel`].
pub(crate) fn available_workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Runs a whole range batch through `kernel`: project once, plan up to
/// `shards` work-balanced shard bounds over the batch's sweep span, sweep
/// them, and merge the partial responses deterministically in shard order.
/// Returns the merged response and the number of shards actually swept (the
/// planner produces fewer than requested when the requests enter at fewer
/// distinct addresses).
///
/// With `shards <= 1` this is the plain fused sweep: the plan is the hull of
/// the projected intervals, swept on the calling thread, and the kernel's
/// [`RangeBatchKernel::footprint`] is never asked for. Every shard count
/// yields bit-identical outputs and per-request counters; only shared page
/// visits may rise with the shard count, bounded by once per shard.
pub fn run_range_batch(
    kernel: &dyn RangeBatchKernel,
    requests: &[RangeBatchRequest],
    shards: usize,
) -> (RangeBatchResponse, usize) {
    let projection = kernel.project_batch(requests);
    let weights = if shards > 1 {
        kernel.footprint(requests, &projection).per_request
    } else {
        Vec::new()
    };
    run_projected_batch(kernel, requests, projection, &weights, shards)
}

/// [`run_range_batch`] with the projection phase already done — the entry
/// point the Auto strategy uses so the projection and footprint that fed
/// the cost model are reused by the execution it chose, never recomputed.
/// `weights` are the footprint's per-request weights, read only when
/// `shards > 1`.
///
/// Oversubscription guard: spawned workers are capped at the host's
/// [`available_workers`] — extra threads for CPU-bound sweeps can only add
/// scheduling overhead. The shard *plan* itself is never host-dependent
/// (shard bounds, and therefore all deterministic counters, are identical
/// whatever machine executes the batch); when there are more shards than
/// workers, each worker sweeps a contiguous run of shards, and on a
/// single-core host every shard is swept inline on the calling thread —
/// same shards, same merge, no threads.
pub(crate) fn run_projected_batch(
    kernel: &dyn RangeBatchKernel,
    requests: &[RangeBatchRequest],
    projection: BatchProjection,
    weights: &[u64],
    shards: usize,
) -> (RangeBatchResponse, usize) {
    debug_assert_eq!(projection.intervals.len(), requests.len());
    let plan = plan_shard_bounds(&projection.intervals, weights, shards);
    let workers = available_workers().min(plan.len());
    let merged = if workers <= 1 {
        let sweeps = plan
            .iter()
            .map(|&bounds| kernel.sweep_shard(requests, &projection, bounds));
        merge_shard_responses(requests, &projection, sweeps)
    } else {
        let sweeps = sweep_shards_threaded(kernel, requests, &projection, &plan, workers);
        merge_shard_responses(requests, &projection, sweeps)
    };
    (merged, plan.len().max(1))
}

/// Sweeps the planned shards on at most `workers` scoped worker threads —
/// each worker takes a contiguous run of shards and sweeps them in order —
/// returning the partial responses in plan (= shard) order however the
/// workers were scheduled.
pub(crate) fn sweep_shards_threaded(
    kernel: &dyn RangeBatchKernel,
    requests: &[RangeBatchRequest],
    projection: &BatchProjection,
    plan: &[ShardBounds],
    workers: usize,
) -> Vec<RangeBatchResponse> {
    let chunk_size = plan.len().div_ceil(workers.max(1));
    std::thread::scope(|scope| {
        let handles: Vec<_> = plan
            .chunks(chunk_size)
            .map(|chunk| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|&bounds| kernel.sweep_shard(requests, projection, bounds))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|handle| {
                // Re-raise a shard worker's panic with its original payload,
                // so a kernel panic on a worker thread reaches the engine's
                // isolation boundary (catch_execution_panic) with its
                // message intact instead of being masked by a join error.
                handle
                    .join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
            })
            .collect()
    })
}

/// Deterministically merges per-shard partial responses (in ascending shard
/// order) with the batch's projection into one [`RangeBatchResponse`].
///
/// Point outputs concatenate in shard order — under owner-based sharding a
/// request's output is produced wholly by the one shard owning its entry
/// address, so concatenation reproduces the single sweep's scan order
/// exactly. Counts, per-query counters and shared counters sum; the
/// projection's per-request work and wall-clock are folded in so the merged
/// response accounts for the whole fused execution.
pub(crate) fn merge_shard_responses(
    requests: &[RangeBatchRequest],
    projection: &BatchProjection,
    responses: impl IntoIterator<Item = RangeBatchResponse>,
) -> RangeBatchResponse {
    let mut merged = RangeBatchResponse::zeroed(requests);
    merged.per_query.clone_from_slice(&projection.per_query);
    merged.shared.projection_ns += projection.elapsed_ns;
    for response in responses {
        debug_assert_eq!(response.outputs.len(), requests.len());
        for (into, from) in merged.outputs.iter_mut().zip(response.outputs) {
            match (into, from) {
                (RangeBatchOutput::Points(all), RangeBatchOutput::Points(part)) => {
                    all.extend(part);
                }
                (RangeBatchOutput::Count(all), RangeBatchOutput::Count(part)) => {
                    *all += part;
                }
                _ => unreachable!("shard outputs are shaped by the same requests"),
            }
        }
        for (into, from) in merged.per_query.iter_mut().zip(&response.per_query) {
            into.merge(from);
        }
        merged.shared.merge(&response.shared);
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    fn interval(lo: u32, hi: u32) -> SweepInterval {
        SweepInterval { lo, hi }
    }

    /// The whole-interval weights of `intervals` at `points` points per
    /// address: what the default footprint hands the planner.
    fn weights(intervals: &[SweepInterval], points: u64) -> Vec<u64> {
        RangeBatchStats::whole_intervals(intervals, |_| points).per_request
    }

    #[test]
    fn empty_batch_has_no_shards() {
        assert!(plan_shard_bounds(&[], &[], 4).is_empty());
    }

    #[test]
    fn single_shard_covers_the_hull() {
        let plan = plan_shard_bounds(&[interval(3, 9), interval(5, 20)], &[], 1);
        assert_eq!(plan, vec![ShardBounds { start: 3, end: 21 }]);
    }

    #[test]
    fn shards_partition_the_hull_without_gaps() {
        let intervals = [
            interval(0, 10),
            interval(4, 30),
            interval(8, 12),
            interval(25, 63),
        ];
        for shards in [2, 3, 4, 8] {
            let plan = plan_shard_bounds(&intervals, &weights(&intervals, 1), shards);
            assert!(!plan.is_empty() && plan.len() <= shards);
            assert_eq!(plan.first().unwrap().start, 0);
            assert_eq!(plan.last().unwrap().end, 64);
            for pair in plan.windows(2) {
                assert_eq!(pair[0].end, pair[1].start, "gap or overlap in {plan:?}");
                assert!(pair[0].start < pair[0].end);
            }
        }
    }

    #[test]
    fn shards_clamp_to_the_span() {
        // One entry address cannot feed more than one shard, however wide
        // the hull.
        let plan = plan_shard_bounds(&[interval(7, 9)], &[3], 16);
        assert_eq!(plan, vec![ShardBounds { start: 7, end: 10 }]);
        let intervals = [interval(7, 7), interval(8, 8), interval(9, 9)];
        let plan = plan_shard_bounds(&intervals, &[1, 1, 1], 16);
        assert_eq!(plan.len(), 3, "three entries feed at most three shards");
        assert_eq!(plan.first().unwrap().start, 7);
        assert_eq!(plan.last().unwrap().end, 10);
    }

    #[test]
    fn balanced_cuts_split_the_hot_span() {
        // Ten stacked intervals over [0, 9], one lone interval over [10, 99]:
        // a work-balanced 2-shard plan cuts well before the midpoint 50.
        let mut intervals = vec![interval(10, 99)];
        intervals.extend((0..10).map(|_| interval(0, 9)));
        let plan = plan_shard_bounds(&intervals, &weights(&intervals, 1), 2);
        assert_eq!(plan.len(), 2);
        assert!(
            plan[0].end <= 30,
            "first cut at {} ignores the hot span",
            plan[0].end
        );
    }

    #[test]
    fn weighted_cuts_follow_point_counts() {
        // Sixteen single-address intervals over [0, 15]; the walks entering
        // the first four addresses carry almost all the points. A
        // work-weighted 2-shard plan cuts right after the heavy prefix,
        // where uniform weights cut at the midpoint.
        let intervals: Vec<SweepInterval> = (0..16).map(|a| interval(a, a)).collect();
        let mut heavy = vec![2u64; 16];
        for weight in heavy.iter_mut().take(4) {
            *weight = 1_001;
        }
        let weighted = plan_shard_bounds(&intervals, &heavy, 2);
        assert_eq!(weighted.len(), 2);
        assert!(
            weighted[0].end <= 5,
            "weighted cut at {} ignores the heavy prefix",
            weighted[0].end
        );
        let uniform = plan_shard_bounds(&intervals, &weights(&intervals, 1), 2);
        assert_eq!(uniform[0].end, 8, "uniform weights cut at the midpoint");
        // Both plans partition the hull without gaps.
        for plan in [&weighted, &uniform] {
            assert_eq!(plan.first().unwrap().start, 0);
            assert_eq!(plan.last().unwrap().end, 16);
            for pair in plan.windows(2) {
                assert_eq!(pair[0].end, pair[1].start);
            }
        }
    }

    #[test]
    fn weighted_planner_charges_whole_walks_to_the_entry_address() {
        // One long interval entering at 0 spans the whole hull; many short
        // intervals enter at 12. Owner-based sharding executes the long
        // walk entirely in the shard owning address 0, so a balanced plan
        // gives the first shard a narrow slice even though the long
        // interval covers everything.
        let mut intervals = vec![interval(0, 15)];
        intervals.extend((0..10).map(|_| interval(12, 15)));
        let plan = plan_shard_bounds(&intervals, &weights(&intervals, 10), 2);
        assert_eq!(plan.len(), 2);
        assert!(
            plan[0].end <= 12,
            "cut at {} puts both entry hotspots in one shard",
            plan[0].end
        );
    }

    #[test]
    fn weighted_planner_handles_degenerate_inputs() {
        assert!(plan_shard_bounds(&[], &[], 4).is_empty());
        // Zero weights still count one per walk, so the cuts advance.
        let intervals = [interval(0, 4), interval(5, 9)];
        let plan = plan_shard_bounds(&intervals, &[0, 0], 4);
        assert_eq!(
            plan,
            vec![
                ShardBounds { start: 0, end: 5 },
                ShardBounds { start: 5, end: 10 }
            ]
        );
        // One shard returns the hull without reading the weights.
        assert_eq!(
            plan_shard_bounds(&[interval(3, 9)], &[], 1),
            vec![ShardBounds { start: 3, end: 10 }]
        );
    }

    #[test]
    fn merge_concatenates_points_and_sums_counts() {
        let requests = [
            RangeBatchRequest {
                rect: Rect::UNIT,
                collect: true,
            },
            RangeBatchRequest {
                rect: Rect::UNIT,
                collect: false,
            },
        ];
        let projection = BatchProjection {
            intervals: vec![interval(0, 3), interval(0, 3)],
            per_query: vec![
                ExecStats {
                    nodes_visited: 2,
                    ..Default::default()
                };
                2
            ],
            elapsed_ns: 5,
        };
        let shard = |points: Vec<Point>, count: u64, pages: u64| RangeBatchResponse {
            outputs: vec![
                RangeBatchOutput::Points(points),
                RangeBatchOutput::Count(count),
            ],
            per_query: vec![
                ExecStats {
                    points_scanned: 4,
                    ..Default::default()
                };
                2
            ],
            shared: ExecStats {
                pages_scanned: pages,
                ..Default::default()
            },
        };
        let a = Point::new(0.1, 0.1);
        let b = Point::new(0.9, 0.9);
        let merged = merge_shard_responses(
            &requests,
            &projection,
            vec![shard(vec![a], 2, 1), shard(vec![b], 3, 2)],
        );
        assert_eq!(merged.outputs[0], RangeBatchOutput::Points(vec![a, b]));
        assert_eq!(merged.outputs[1], RangeBatchOutput::Count(5));
        assert_eq!(merged.per_query[0].nodes_visited, 2);
        assert_eq!(merged.per_query[0].points_scanned, 8);
        assert_eq!(merged.shared.pages_scanned, 3);
        assert_eq!(merged.shared.projection_ns, 5);
    }
}
