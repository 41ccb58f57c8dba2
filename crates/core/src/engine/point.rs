//! The fused point-probe batch seam: many exact-match probes answered in
//! one leaf-grouped pass over the index.
//!
//! A sequential batch of point probes pays one full projection (Algorithm-1
//! descent, grid lookup, code search — whatever the index's routing
//! structure is) *and one page visit per probe*, even when many probes land
//! in the same page: a skewed workload hammering a hot key range fetches the
//! same hot page over and over. The batched path exploits what the probes
//! share. The engine maps every probe to the address of its owning page
//! ([`PointBatchKernel::locate_probes`]), groups the probes by that address
//! in **one sorted pass**, and hands each group to the kernel
//! ([`PointBatchKernel::probe_page`]), which fetches the page once and
//! answers every probe of the group against it.
//!
//! The contract mirrors the fused range kernel's: answers and per-probe
//! counters are exactly those of the sequential
//! [`crate::SpatialIndex::point_query`] loop — every probe still pays its
//! own projection work and its own point comparisons — while the physical
//! page visit is charged once per *group* to the response's shared stats.
//! Fusion shares work; it never adds any.
//!
//! # Worked example
//!
//! Duplicate probes (the hot-key case) collapse onto one page visit:
//!
//! ```
//! use wazi_core::{run_point_batch, SpatialIndex, ZIndex};
//! use wazi_geom::Point;
//!
//! let points: Vec<Point> = (0..1_000)
//!     .map(|i| Point::new((i % 40) as f64 / 40.0, (i / 40) as f64 / 25.0))
//!     .collect();
//! let index = ZIndex::build_base(points.clone());
//! let kernel = index.point_batch_kernel().expect("the Z-index probes in batches");
//!
//! // Four probes, but only two distinct owning pages at most: the batch
//! // visits each owning page once, however many probes share it.
//! let probes = vec![points[3], points[3], points[3], points[700]];
//! let response = run_point_batch(kernel, &probes);
//! assert_eq!(response.found, vec![true, true, true, true]);
//! assert!(response.shared.pages_scanned <= 2);
//! // Every probe still pays its own comparisons, like the sequential loop.
//! assert!(response.per_query.iter().all(|s| s.points_scanned >= 1));
//! ```

use std::time::Instant;
use wazi_geom::Point;
use wazi_storage::ExecStats;

use super::batch::available_workers;

/// The kernel's answer to a point-probe batch: parallel to the probe slice.
#[derive(Debug, Clone, PartialEq)]
pub struct PointBatchResponse {
    /// Whether each probe found its point, in probe order.
    pub found: Vec<bool>,
    /// Work attributable to a single probe (its projection descent, its
    /// point comparisons, its result), charged exactly as the sequential
    /// [`crate::SpatialIndex::point_query`] charges it.
    pub per_query: Vec<ExecStats>,
    /// Work performed once on behalf of a whole probe group: the page
    /// visits of pages shared by several probes, plus the batch's grouping
    /// and phase timings.
    pub shared: ExecStats,
}

impl PointBatchResponse {
    /// A zero-work response shaped for `probes` probes: nothing found,
    /// default stats. Kernels fill it in group by group.
    pub fn zeroed(probes: usize) -> Self {
        Self {
            found: vec![false; probes],
            per_query: vec![ExecStats::default(); probes],
            shared: ExecStats::default(),
        }
    }
}

/// Fused execution of many exact-match point probes in one leaf-grouped
/// pass over the index.
///
/// # Contract
///
/// For every probe, the answer and the per-probe counters must be exactly
/// those of the sequential [`crate::SpatialIndex::point_query`] — same
/// boolean, same projection charges, same point comparisons — while the
/// physical page visit may be shared across the probes of one group and
/// charged once to [`PointBatchResponse::shared`]. The driver
/// ([`run_point_batch`]) owns the grouping; kernels only answer one page's
/// group at a time.
///
/// The trait requires `Sync` because probe groups are disjoint by
/// construction — no two groups touch the same response slot — so the
/// sharded driver ([`run_point_batch_sharded`]) answers runs of groups on
/// concurrent worker threads against the same kernel.
pub trait PointBatchKernel: Sync {
    /// Maps every probe to the address of its owning page (leaf index for
    /// the Z-index, grid column for Flood, Morton code for the sorted
    /// Z-order array), charging each probe's projection work — and nothing
    /// else — to its `per_query` slot.
    fn locate_probes(&self, probes: &[Point], per_query: &mut [ExecStats]) -> Vec<u64>;

    /// Answers every probe of one address group against the owning page,
    /// fetched once. `group` holds `(probe position, probe point)` pairs in
    /// input order; implementations write answers to
    /// `response.found[position]`, charge per-probe comparisons to
    /// `response.per_query[position]` and the single page visit to
    /// `response.shared`.
    fn probe_page(&self, address: u64, group: &[(usize, Point)], response: &mut PointBatchResponse);
}

/// Drives a [`PointBatchKernel`] over a whole probe batch: locate every
/// probe, group the probes by owning address in one sorted pass, and answer
/// each group with a single page visit.
///
/// Ties in the sort are broken by probe position, so duplicate probes are
/// grouped deterministically and answers are reproducible bit for bit.
/// Grouping and projection work is charged to the shared projection phase,
/// page probing to the shared scan phase (per-probe timings are folded into
/// the batch: attributing nanoseconds to individual probes would only add
/// clock noise).
pub fn run_point_batch(kernel: &dyn PointBatchKernel, probes: &[Point]) -> PointBatchResponse {
    run_point_batch_sharded(kernel, probes, 1).0
}

/// Answers every group of a contiguous, group-aligned slice of the sorted
/// probe order, one [`PointBatchKernel::probe_page`] call per group.
fn probe_group_run(
    kernel: &dyn PointBatchKernel,
    probes: &[Point],
    addresses: &[u64],
    order: &[usize],
    response: &mut PointBatchResponse,
) {
    let mut group: Vec<(usize, Point)> = Vec::new();
    let mut at = 0usize;
    while at < order.len() {
        let address = addresses[order[at]];
        group.clear();
        while at < order.len() && addresses[order[at]] == address {
            group.push((order[at], probes[order[at]]));
            at += 1;
        }
        kernel.probe_page(address, &group, response);
    }
}

/// Cuts the sorted probe order into at most `shards` contiguous,
/// probe-balanced chunks, **always at group boundaries** — a page's group is
/// never split, so each chunk's page visits and per-probe charges are
/// exactly those of the single-threaded pass over the same groups. `groups`
/// holds the half-open group ranges over the order array, in order.
fn plan_probe_chunks(
    groups: &[std::ops::Range<usize>],
    shards: usize,
) -> Vec<std::ops::Range<usize>> {
    if groups.is_empty() {
        return Vec::new();
    }
    let shards = shards.clamp(1, groups.len());
    let total = groups.last().expect("nonempty").end;
    let mut chunks = Vec::with_capacity(shards);
    let mut gi = 0usize;
    for chunk_index in 0..shards {
        if gi >= groups.len() {
            break;
        }
        let chunks_left = shards - chunk_index;
        let start = groups[gi].start;
        if chunks_left == 1 {
            chunks.push(start..total);
            break;
        }
        let target = (total - start).div_ceil(chunks_left);
        let mut end = start;
        // Take whole groups up to the fair share, leaving at least one
        // group for every chunk still to be planned.
        while gi <= groups.len() - chunks_left && end - start < target {
            end = groups[gi].end;
            gi += 1;
        }
        chunks.push(start..end);
    }
    chunks
}

/// The sharded variant of [`run_point_batch`]: the same locate-and-group
/// pass, with the sorted group list split at group boundaries into up to
/// `shards` probe-balanced chunks answered on scoped worker threads.
///
/// Groups are disjoint by construction — every response slot is written by
/// exactly one group — so chunked execution is output- and counter-identical
/// to the single-threaded pass whatever the thread scheduling: per-chunk
/// partial responses merge by slot (disjoint), shared counters sum. Chunk
/// planning depends only on the batch, never on the host, so all
/// deterministic counters are shard-count- and machine-invariant. Returns
/// the merged response and the number of chunks actually planned (1 when
/// the batch has a single group or `shards <= 1`); on a host without
/// spare parallelism the chunks are answered inline on the calling thread —
/// same chunks, same merge, no threads.
pub fn run_point_batch_sharded(
    kernel: &dyn PointBatchKernel,
    probes: &[Point],
    shards: usize,
) -> (PointBatchResponse, usize) {
    let mut response = PointBatchResponse::zeroed(probes.len());
    if probes.is_empty() {
        return (response, 1);
    }
    let projection_start = Instant::now();
    let addresses = kernel.locate_probes(probes, &mut response.per_query);
    debug_assert_eq!(addresses.len(), probes.len());
    // The one sorted pass: probe positions ordered by (owning address,
    // position) so each page's probes form one contiguous run.
    let mut order: Vec<usize> = (0..probes.len()).collect();
    order.sort_unstable_by_key(|&i| (addresses[i], i));
    // Group boundaries over the sorted order, one range per distinct page.
    let mut groups: Vec<std::ops::Range<usize>> = Vec::new();
    let mut at = 0usize;
    while at < order.len() {
        let address = addresses[order[at]];
        let start = at;
        while at < order.len() && addresses[order[at]] == address {
            at += 1;
        }
        groups.push(start..at);
    }
    let projection_ns = projection_start.elapsed().as_nanos() as u64;

    let scan_start = Instant::now();
    let chunks = plan_probe_chunks(&groups, shards.max(1));
    let workers = available_workers().min(chunks.len());
    if chunks.len() <= 1 || workers <= 1 {
        probe_group_run(kernel, probes, &addresses, &order, &mut response);
    } else {
        // Each worker answers a contiguous run of chunks (still contiguous
        // and group-aligned in the sorted order) into its own partial
        // response; partials merge slot-wise below.
        let per_worker = chunks.len().div_ceil(workers);
        let partials: Vec<PointBatchResponse> = std::thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .chunks(per_worker)
                .map(|run| {
                    let span = run[0].start..run[run.len() - 1].end;
                    let order = &order[span];
                    let addresses = &addresses[..];
                    scope.spawn(move || {
                        let mut partial = PointBatchResponse::zeroed(probes.len());
                        probe_group_run(kernel, probes, addresses, order, &mut partial);
                        partial
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| {
                    // Re-raise with the original payload so a probe-worker
                    // panic reaches catch_execution_panic with its message.
                    handle
                        .join()
                        .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
                })
                .collect()
        });
        for partial in partials {
            for (slot, found) in partial.found.iter().enumerate() {
                if *found {
                    response.found[slot] = true;
                }
            }
            for (into, from) in response.per_query.iter_mut().zip(&partial.per_query) {
                into.merge(from);
            }
            response.shared.merge(&partial.shared);
        }
    }
    response.shared.projection_ns += projection_ns;
    response.shared.scan_ns += scan_start.elapsed().as_nanos() as u64;
    (response, chunks.len().max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy kernel over ten buckets of one point each: bucket = floor(x*10).
    struct Buckets(Vec<Point>);

    impl PointBatchKernel for Buckets {
        fn locate_probes(&self, probes: &[Point], per_query: &mut [ExecStats]) -> Vec<u64> {
            probes
                .iter()
                .zip(per_query)
                .map(|(p, stats)| {
                    stats.nodes_visited += 1;
                    (p.x * 10.0).floor().clamp(0.0, 9.0) as u64
                })
                .collect()
        }

        fn probe_page(
            &self,
            address: u64,
            group: &[(usize, Point)],
            response: &mut PointBatchResponse,
        ) {
            response.shared.pages_scanned += 1;
            for &(slot, p) in group {
                response.per_query[slot].points_scanned += 1;
                if self.0[address as usize] == p {
                    response.found[slot] = true;
                    response.per_query[slot].results += 1;
                }
            }
        }
    }

    #[test]
    fn groups_share_page_visits_and_keep_probe_order() {
        let kernel = Buckets((0..10).map(|i| Point::new(i as f64 / 10.0, 0.5)).collect());
        let probes = vec![
            Point::new(0.35, 0.5), // bucket 3: miss (stored point is 0.30)
            Point::new(0.30, 0.5), // bucket 3: hit
            Point::new(0.90, 0.5), // bucket 9: hit
            Point::new(0.30, 0.5), // bucket 3 again: hit
        ];
        let response = run_point_batch(&kernel, &probes);
        assert_eq!(response.found, vec![false, true, true, true]);
        // Two distinct buckets → two page visits, not four.
        assert_eq!(response.shared.pages_scanned, 2);
        // Every probe paid its own projection and comparison.
        for stats in &response.per_query {
            assert_eq!(stats.nodes_visited, 1);
            assert_eq!(stats.points_scanned, 1);
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let kernel = Buckets(vec![Point::new(0.0, 0.0); 10]);
        let response = run_point_batch(&kernel, &[]);
        assert!(response.found.is_empty());
        assert_eq!(response.shared, ExecStats::default());
    }

    /// Sharded execution splits the sorted group list at group boundaries,
    /// so every shard count — including more shards than groups — yields
    /// the single pass's answers and counters exactly.
    #[test]
    fn sharded_probe_batches_match_the_single_pass() {
        let kernel = Buckets((0..10).map(|i| Point::new(i as f64 / 10.0, 0.5)).collect());
        let probes: Vec<Point> = (0..60)
            .map(|i| Point::new(((i * 7) % 10) as f64 / 10.0, 0.5))
            .collect();
        let (single, single_chunks) = run_point_batch_sharded(&kernel, &probes, 1);
        assert_eq!(single_chunks, 1);
        assert_eq!(single.shared.pages_scanned, 10, "one visit per bucket");
        for shards in [2usize, 3, 7, 10, 64] {
            let (sharded, chunks) = run_point_batch_sharded(&kernel, &probes, shards);
            assert!(chunks >= 1 && chunks <= shards.min(10), "{shards} shards");
            assert_eq!(sharded.found, single.found, "{shards} shards");
            assert_eq!(
                sharded.shared.pages_scanned, single.shared.pages_scanned,
                "{shards} shards: groups must never split"
            );
            for (a, b) in sharded.per_query.iter().zip(&single.per_query) {
                assert_eq!(a.points_scanned, b.points_scanned, "{shards} shards");
                assert_eq!(a.nodes_visited, b.nodes_visited, "{shards} shards");
                assert_eq!(a.results, b.results, "{shards} shards");
            }
        }
    }

    #[test]
    fn probe_chunk_planner_covers_all_groups_without_splitting() {
        let groups = vec![0..5, 5..6, 6..20, 20..21, 21..25];
        for shards in [1usize, 2, 3, 5, 9] {
            let chunks = plan_probe_chunks(&groups, shards);
            assert!(!chunks.is_empty() && chunks.len() <= shards.min(groups.len()));
            assert_eq!(chunks.first().unwrap().start, 0);
            assert_eq!(chunks.last().unwrap().end, 25);
            for pair in chunks.windows(2) {
                assert_eq!(pair[0].end, pair[1].start, "gap or overlap in {chunks:?}");
                // Every cut lands on a group boundary.
                assert!(
                    groups.iter().any(|g| g.start == pair[1].start),
                    "cut at {} splits a group",
                    pair[1].start
                );
            }
        }
        assert!(plan_probe_chunks(&[], 4).is_empty());
    }
}
