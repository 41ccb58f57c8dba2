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

use wazi_geom::{Point, Rect};
use wazi_storage::ExecStats;

use super::cost::KernelClass;

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
/// shard plan over the projected intervals (work-weighted when the kernel
/// exposes [`address_counts`], coverage-weighted otherwise), one
/// [`sweep_shard`] call per shard, and a deterministic merge. A plain fused
/// sweep is the one-shard plan: the hull of the projected intervals, swept
/// on the calling thread.
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
/// [`address_counts`]: RangeBatchKernel::address_counts
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

    /// Per-address point counts over the sweep address space (points per
    /// leaf for the Z-index, per column for Flood), consumed by the
    /// work-weighted shard planner and the cost model: shards then balance
    /// estimated *scan* work, not just interval coverage. The default
    /// advertises nothing and the planner falls back to coverage weights.
    /// Never asked for by a one-shard run, whose plan is the hull whatever
    /// the counts.
    fn address_counts(&self) -> Option<Vec<u64>> {
        None
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
fn interval_hull(intervals: &[SweepInterval]) -> Option<(u32, u32)> {
    let first = intervals.first()?;
    let mut lo = first.lo;
    let mut hi = first.hi;
    for interval in &intervals[1..] {
        lo = lo.min(interval.lo);
        hi = hi.max(interval.hi);
    }
    Some((lo, hi))
}

/// Cuts the hull `[lo, lo + weights.len())` into up to `shards` contiguous
/// bounds so each carries roughly its fair share of the weight. Every
/// weight must be at least one, so zero-work gaps still advance the cuts
/// and no shard degenerates to zero width.
///
/// The cut decision looks one address ahead: a shard closes *before* an
/// address whose weight would overshoot the fair share of the remaining
/// work by more than stopping short undershoots it — so a single heavy
/// address (a stack of walks entering one leaf) lands in the shard where it
/// balances best instead of always being dragged into the current one.
fn cut_balanced(lo: u32, weights: &[i64], shards: usize) -> Vec<ShardBounds> {
    let span = weights.len();
    let mut bounds = Vec::with_capacity(shards);
    let mut start = 0usize;
    let mut carried = 0i64;
    let mut remaining: i64 = weights.iter().sum();
    for (position, &weight) in weights.iter().enumerate() {
        let shards_left = shards - bounds.len();
        // Cutting before this address must leave one address for each of
        // the remaining shards.
        let room_left = span - position >= shards_left - 1;
        if shards_left > 1 && carried > 0 && room_left {
            let target = (carried + remaining) / shards_left as i64;
            let overshoot = carried + weight - target;
            let undershoot = target - carried;
            if overshoot > 0 && overshoot > undershoot {
                bounds.push(ShardBounds {
                    start: lo + start as u32,
                    end: lo + position as u32,
                });
                start = position;
                carried = 0;
            }
        }
        carried += weight;
        remaining -= weight;
    }
    bounds.push(ShardBounds {
        start: lo + start as u32,
        end: lo + span as u32,
    });
    debug_assert!(bounds.len() <= shards);
    bounds
}

/// Plans up to `shards` disjoint, contiguous, work-balanced shard bounds
/// covering the hull of the projected intervals. Returns fewer bounds than
/// requested when the hull has fewer addresses than shards, the hull itself
/// for one shard (whatever the counts), and an empty plan for an empty
/// batch.
///
/// With per-address point `counts` ([`RangeBatchKernel::address_counts`])
/// the plan is **work-weighted**. Under owner-based sharding a request's
/// *whole* walk executes in the shard containing its entry address, so each
/// entry address is charged the estimated cost of the walks starting there:
/// one bounding-box check per covered address plus one point comparison per
/// point stored under the interval (from a prefix sum over `counts`, so
/// planning stays linear in requests plus addresses; addresses beyond
/// `counts` weigh zero points). Cuts then equalize estimated *scan* work —
/// a shard owning few but point-heavy intervals ends up as narrow as one
/// owning many light intervals.
///
/// Without counts, work is estimated as interval **coverage**: every
/// (request, address) pair with the address inside the request's interval
/// counts one unit, which can only equalize check work but still balances
/// overlapping batches far better than equal-width cuts (hot spans where
/// many intervals stack are split, cold spans are merged).
pub(crate) fn plan_shard_bounds(
    intervals: &[SweepInterval],
    shards: usize,
    counts: Option<&[u64]>,
) -> Vec<ShardBounds> {
    let Some((lo, hi)) = interval_hull(intervals) else {
        return Vec::new();
    };
    let span = (hi - lo + 1) as usize;
    let shards = shards.clamp(1, span);
    if shards == 1 {
        return vec![ShardBounds {
            start: lo,
            end: hi + 1,
        }];
    }
    let mut weights = vec![0i64; span];
    match counts {
        Some(counts) => {
            // Prefix sums of the point counts over the hull: points(a..=b)
            // = prefix[b + 1] - prefix[a], with addresses relative to `lo`.
            let mut prefix = Vec::with_capacity(span + 1);
            prefix.push(0u64);
            for offset in 0..span {
                let count = counts.get(lo as usize + offset).copied().unwrap_or(0);
                prefix.push(prefix[offset] + count);
            }
            for interval in intervals {
                let enter = (interval.lo - lo) as usize;
                let exit = (interval.hi - lo) as usize;
                let checks = (exit - enter + 1) as i64;
                let scans = (prefix[exit + 1] - prefix[enter]) as i64;
                weights[enter] += checks + scans;
            }
        }
        None => {
            // Coverage histogram over the hull via a difference array.
            let mut diff = vec![0i64; span + 1];
            for interval in intervals {
                diff[(interval.lo - lo) as usize] += 1;
                diff[(interval.hi - lo) as usize + 1] -= 1;
            }
            let mut coverage = 0i64;
            for (weight, d) in weights.iter_mut().zip(&diff) {
                coverage += d;
                *weight = coverage;
            }
        }
    }
    for weight in &mut weights {
        *weight = (*weight).max(1);
    }
    cut_balanced(lo, &weights, shards)
}

/// Worker threads the host can usefully run
/// ([`std::thread::available_parallelism`], one when unknown). Feeds both
/// the oversubscription guard of the threaded sweep and the cost model's
/// parallel-candidate gate — on a single-core host the model never picks
/// [`crate::BatchStrategy::FusedParallel`].
pub(crate) fn available_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs a whole range batch through `kernel`: project once, plan up to
/// `shards` work-balanced shard bounds over the batch's sweep span, sweep
/// them, and merge the partial responses deterministically in shard order.
/// Returns the merged response and the number of shards actually swept (the
/// planner produces fewer than requested on narrow spans).
///
/// With `shards <= 1` this is the plain fused sweep: the plan is the hull of
/// the projected intervals, swept on the calling thread, and the kernel's
/// [`RangeBatchKernel::address_counts`] are never asked for. Every shard
/// count yields bit-identical outputs and per-request counters; only shared
/// page visits may rise with the shard count, bounded by once per shard.
pub fn run_range_batch(
    kernel: &dyn RangeBatchKernel,
    requests: &[RangeBatchRequest],
    shards: usize,
) -> (RangeBatchResponse, usize) {
    let projection = kernel.project_batch(requests);
    let counts = if shards > 1 {
        kernel.address_counts()
    } else {
        None
    };
    run_projected_batch(kernel, requests, projection, counts.as_deref(), shards)
}

/// [`run_range_batch`] with the projection phase already done — the entry
/// point the Auto strategy uses so the projection (and address counts) that
/// fed the cost model are reused by the execution it chose, never
/// recomputed.
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
    counts: Option<&[u64]>,
    shards: usize,
) -> (RangeBatchResponse, usize) {
    debug_assert_eq!(projection.intervals.len(), requests.len());
    let plan = plan_shard_bounds(&projection.intervals, shards, counts);
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

    #[test]
    fn empty_batch_has_no_shards() {
        assert!(plan_shard_bounds(&[], 4, None).is_empty());
    }

    #[test]
    fn single_shard_covers_the_hull() {
        let plan = plan_shard_bounds(&[interval(3, 9), interval(5, 20)], 1, None);
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
            let plan = plan_shard_bounds(&intervals, shards, None);
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
        let plan = plan_shard_bounds(&[interval(7, 9)], 16, None);
        assert!(plan.len() <= 3, "3-address span cannot feed 16 shards");
        assert_eq!(plan.first().unwrap().start, 7);
        assert_eq!(plan.last().unwrap().end, 10);
    }

    #[test]
    fn balanced_cuts_split_the_hot_span() {
        // Ten stacked intervals over [0, 9], one lone interval over [10, 99]:
        // a work-balanced 2-shard plan cuts well before the midpoint 50.
        let mut intervals = vec![interval(10, 99)];
        intervals.extend((0..10).map(|_| interval(0, 9)));
        let plan = plan_shard_bounds(&intervals, 2, None);
        assert_eq!(plan.len(), 2);
        assert!(
            plan[0].end <= 30,
            "first cut at {} ignores the hot span",
            plan[0].end
        );
    }

    #[test]
    fn weighted_cuts_follow_point_counts() {
        // Sixteen single-address intervals over [0, 15]; the first four
        // addresses hold almost all the points. A work-weighted 2-shard
        // plan cuts right after the heavy prefix, where a coverage plan
        // (uniform: one interval per address) cuts at the midpoint.
        let intervals: Vec<SweepInterval> = (0..16).map(|a| interval(a, a)).collect();
        let mut counts = vec![1u64; 16];
        for count in counts.iter_mut().take(4) {
            *count = 1_000;
        }
        let weighted = plan_shard_bounds(&intervals, 2, Some(&counts));
        assert_eq!(weighted.len(), 2);
        assert!(
            weighted[0].end <= 5,
            "weighted cut at {} ignores the heavy prefix",
            weighted[0].end
        );
        let coverage = plan_shard_bounds(&intervals, 2, None);
        assert_eq!(coverage[0].end, 8, "uniform coverage cuts at the midpoint");
        // Both planners partition the hull without gaps.
        for plan in [&weighted, &coverage] {
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
        let counts = vec![10u64; 16];
        let plan = plan_shard_bounds(&intervals, 2, Some(&counts));
        assert_eq!(plan.len(), 2);
        assert!(
            plan[0].end <= 12,
            "cut at {} puts both entry hotspots in one shard",
            plan[0].end
        );
    }

    #[test]
    fn weighted_planner_handles_degenerate_inputs() {
        assert!(plan_shard_bounds(&[], 4, Some(&[1, 2, 3])).is_empty());
        // Counts shorter than the hull weigh the tail as zero points.
        let plan = plan_shard_bounds(&[interval(0, 9)], 4, Some(&[5]));
        assert_eq!(plan.first().unwrap().start, 0);
        assert_eq!(plan.last().unwrap().end, 10);
        // One shard returns the hull whatever the counts.
        assert_eq!(
            plan_shard_bounds(&[interval(3, 9)], 1, Some(&[])),
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
