//! Query execution: the shared leaf-interval scan kernel.
//!
//! Every read path of the Z-index — materializing range queries, counting,
//! streaming, and the candidate collection behind kNN — funnels through one
//! kernel, [`ZIndex::scan_range`]. The kernel walks the leaf interval
//! `[leaf(BL(q)) : leaf(TR(q))]` of Algorithm 2, applies the look-ahead
//! skipping of Section 5 exactly once (no per-query-type duplication), and
//! hands each relevant page to a [`RangeVisitor`]. Visitors decide what
//! happens to matching points: collect them, count them, or stream them to a
//! caller-supplied closure. Filtering happens in place via the storage
//! layer's visitor primitives, so non-materializing paths allocate nothing.
//!
//! The paper's cost model (Eq. 5) charges queries by bounding boxes checked
//! and points compared; because all paths share this kernel, those counters
//! are identical whichever execution mode the caller picks — only the
//! per-match work differs.

use super::ZIndex;
use crate::engine::{
    interval_hull, BatchProjection, PointBatchKernel, PointBatchResponse, RangeBatchKernel,
    RangeBatchOutput, RangeBatchRequest, RangeBatchResponse, RangeBatchStats, ShardBounds,
    SweepInterval,
};
use crate::node::{Leaf, NodeRef, LOOKAHEAD_END};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;
use wazi_geom::{Point, Rect};
use wazi_storage::{ExecStats, Page};

/// The Z-index's fused range kernel: the sweep address space is the leaf
/// list (never empty — an index built over no points holds one empty leaf).
impl RangeBatchKernel for ZIndex {
    /// Projects every request's corners once (Algorithm 1 per corner,
    /// charged to the request exactly as the sequential kernel charges its
    /// own projections), yielding the leaf interval `[leaf(BL) : leaf(TR)]`
    /// each request's sweep covers.
    fn project_batch(&self, requests: &[RangeBatchRequest]) -> BatchProjection {
        let start = Instant::now();
        let mut per_query = vec![ExecStats::default(); requests.len()];
        let intervals = requests
            .iter()
            .zip(&mut per_query)
            .map(|(request, stats)| {
                let lo = self.locate_leaf(&request.rect.bl(), stats);
                let hi = self.locate_leaf(&request.rect.tr(), stats);
                debug_assert!(lo <= hi, "monotone orderings visit BL before TR");
                SweepInterval { lo, hi }
            })
            .collect();
        BatchProjection {
            intervals,
            per_query,
            elapsed_ns: start.elapsed().as_nanos() as u64,
        }
    }

    /// The fused sweep for the requests owned by one shard
    /// ([`BatchProjection::owned_by`]: ownership is by entry leaf, and the
    /// owning shard sweeps the request over its **whole** interval).
    /// Per-request bounding-box checks and skip counts are therefore
    /// identical to the sequential walk's — and to the single fused
    /// sweep's — whatever the shard plan.
    ///
    /// The sweep maintains the shard's active set *incrementally*: requests
    /// enter at their interval's first leaf and exit when their cursor runs
    /// past its last — there is no per-leaf re-filtering of the whole set.
    /// Each active request carries its own **skip cursor**: the next leaf at
    /// which the request must perform a bounding-box check. A request whose
    /// cursor jumped ahead (its look-ahead pointers proved a run of leaves
    /// irrelevant, Section 5) pays nothing while the sweep serves requests
    /// still inside that run.
    ///
    /// Requests due at the current leaf live in a dense `hot` vector (in the
    /// common case an overlapping request re-arms for the very next leaf);
    /// requests parked at a future leaf wait in a min-heap keyed on their
    /// cursor, so a leaf costs only its due requests plus `O(log n)` per
    /// actual skip — never a scan over the whole active set.
    ///
    /// When at least one due request overlaps the leaf, its page is scanned
    /// **once** for all of them (charged to the shared stats); every
    /// overlapping request then filters the page's points with its own
    /// rectangle, charged per request, so comparison counts match the
    /// sequential path's. A leaf inside a crossing request's tail may also
    /// be visited by the shard owning that leaf's entries, so under a
    /// multi-shard plan a page is fetched at most once per shard that needs
    /// it — still never more than the sequential once-per-query.
    fn sweep_shard(
        &self,
        requests: &[RangeBatchRequest],
        projection: &BatchProjection,
        bounds: ShardBounds,
    ) -> RangeBatchResponse {
        let mut response = RangeBatchResponse::zeroed(requests);
        // Admission list: the owned requests in the order they join the
        // sweep. `high(qi)` is the request's exit leaf — its interval's
        // true end, never clamped to the shard.
        let entries = projection.owned_by(bounds);
        if entries.is_empty() {
            return response;
        }
        let high = |qi: usize| projection.intervals[qi].hi;

        let kernel_start = Instant::now();
        let mut scan_ns = 0u64;
        let skipping = self.skipping_enabled();
        // `hot`: requests whose cursor equals the current sweep position.
        // `parked`: requests whose cursor points at a later leaf.
        let mut hot: Vec<usize> = Vec::new();
        let mut rearmed: Vec<usize> = Vec::new();
        let mut needing: Vec<usize> = Vec::new();
        let mut parked: BinaryHeap<Reverse<(u32, usize)>> = BinaryHeap::new();
        let mut next_entry = 0usize;
        let mut i = entries[0].0;
        loop {
            while next_entry < entries.len() && entries[next_entry].0 <= i {
                hot.push(entries[next_entry].1);
                next_entry += 1;
            }
            while let Some(&Reverse((cursor, qi))) = parked.peek() {
                if cursor > i {
                    break;
                }
                parked.pop();
                hot.push(qi);
            }
            if hot.is_empty() {
                // Nobody is due here: jump straight to the next admission
                // or the earliest parked cursor.
                let next_lo = entries.get(next_entry).map(|&(lo, _)| lo);
                let next_cursor = parked.peek().map(|&Reverse((cursor, _))| cursor);
                match (next_lo, next_cursor) {
                    (Some(a), Some(b)) => i = a.min(b),
                    (Some(a), None) => i = a,
                    (None, Some(b)) => i = b,
                    (None, None) => break,
                }
                continue;
            }
            let leaf = &self.leaves[i as usize];
            needing.clear();
            rearmed.clear();
            for &qi in &hot {
                let rect = &requests[qi].rect;
                let stats = &mut response.per_query[qi];
                stats.bbs_checked += 1;
                if !leaf.bbox.is_empty() && leaf.bbox.overlaps(rect) {
                    needing.push(qi);
                    if i < high(qi) {
                        rearmed.push(qi);
                    }
                    continue;
                }
                // Irrelevant to this request: follow its own look-ahead
                // pointers as far as they allow, exactly like the
                // sequential walk (the jump target is per request, never
                // clamped by other members of the batch).
                let target = skip_target(leaf, rect, i, high(qi), skipping);
                // Charged exactly as the sequential walk charges its own
                // jump (`scan_range`): the full jump distance, never
                // clamped — the request's whole walk lives in this shard.
                stats.leaves_skipped += u64::from(target - (i + 1));
                if target == i + 1 && i < high(qi) {
                    rearmed.push(qi);
                } else if target <= high(qi) {
                    parked.push(Reverse((target, qi)));
                }
            }
            if !needing.is_empty() {
                // One pass over the page on behalf of every overlapping
                // request: the page visit is shared work, the point
                // comparisons stay attributed per request.
                let scan_start = Instant::now();
                response.shared.pages_scanned += 1;
                let page = self.store.page(leaf.page);
                for &qi in &needing {
                    let rect = &requests[qi].rect;
                    let stats = &mut response.per_query[qi];
                    match &mut response.outputs[qi] {
                        RangeBatchOutput::Points(out) => {
                            let before = out.len();
                            page.filter_into_shared(rect, out, stats);
                            stats.results += (out.len() - before) as u64;
                        }
                        RangeBatchOutput::Count(count) => {
                            let matches = page.count_in_shared(rect, stats);
                            *count += matches;
                            stats.results += matches;
                        }
                    }
                }
                scan_ns += scan_start.elapsed().as_nanos() as u64;
            }
            std::mem::swap(&mut hot, &mut rearmed);
            i += 1;
        }
        response
            .shared
            .charge_kernel(kernel_start.elapsed().as_nanos() as u64, scan_ns);
        response
    }

    /// Runs every request's §5 walk over its projected interval exactly as
    /// the sequential range query does — a check per leaf stepped on, a
    /// look-ahead jump past each irrelevant one — without touching a page:
    /// a visited leaf contributes its `count`. Distinct pages are counted
    /// with a bitset over the batch's leaf hull.
    ///
    /// A request's planner weight is the reach of its walk, not only its
    /// scan: its checks and scanned points, plus the index's mean leaf fill
    /// for every leaf it skips. Cuts balanced on the scanned points alone
    /// fall inside hot spans more often, where the walks of both shards
    /// fetch the same pages.
    fn footprint(
        &self,
        requests: &[RangeBatchRequest],
        projection: &BatchProjection,
    ) -> RangeBatchStats {
        let mut stats = RangeBatchStats {
            per_request: Vec::with_capacity(requests.len()),
            ..RangeBatchStats::default()
        };
        let Some((first, last)) = interval_hull(&projection.intervals) else {
            return stats;
        };
        let mut visited = vec![0u64; (last - first) as usize / 64 + 1];
        let skipping = self.skipping_enabled();
        let mean_fill = (self.len / self.leaves.len()) as u64;
        for (request, interval) in requests.iter().zip(&projection.intervals) {
            let (mut checks, mut points) = (0u64, 0u64);
            let mut i = interval.lo;
            while i <= interval.hi {
                let leaf = &self.leaves[i as usize];
                checks += 1;
                if !leaf.bbox.is_empty() && leaf.bbox.overlaps(&request.rect) {
                    stats.page_visits += 1;
                    points += leaf.count as u64;
                    let bit = (i - first) as usize;
                    let (word, mask) = (&mut visited[bit / 64], 1u64 << (bit % 64));
                    stats.distinct_pages += u64::from(*word & mask == 0);
                    *word |= mask;
                    i += 1;
                } else {
                    i = skip_target(leaf, &request.rect, i, interval.hi, skipping);
                }
            }
            stats.checks += checks;
            stats.points += points;
            let skipped = u64::from(interval.hi - interval.lo) + 1 - checks;
            stats
                .per_request
                .push(checks + points + skipped * mean_fill);
        }
        stats
    }
}

/// Where a walk goes after finding leaf `i` irrelevant to `query`: the next
/// leaf, or — with skipping on — as far as the leaf's look-ahead pointers
/// for the query's irrelevancy criteria allow (§5). A pointer past the end
/// of the leaf list ends the walk at `high + 1`. The one definition of the
/// jump, shared by the sequential walk, the fused sweep and the footprint.
#[inline]
fn skip_target(leaf: &Leaf, query: &Rect, i: u32, high: u32, skipping: bool) -> u32 {
    let mut next = i + 1;
    if skipping {
        if let Some(lookahead) = leaf.lookahead {
            for criterion in leaf.irrelevancy_criteria(query) {
                let target = lookahead.get(criterion);
                let target = if target == LOOKAHEAD_END {
                    high + 1
                } else {
                    target
                };
                next = next.max(target);
            }
        }
    }
    next
}

/// The Z-index's fused point-probe kernel: the owning-page address is the
/// leaf index found by the Algorithm-1 descent, charged per probe exactly
/// like the sequential probe's own descent; a leaf's page is then fetched
/// once for all probes grouped onto it, while every probe still pays its
/// own point comparisons.
impl PointBatchKernel for ZIndex {
    fn locate_probes(&self, probes: &[Point], per_query: &mut [ExecStats]) -> Vec<u64> {
        probes
            .iter()
            .zip(per_query)
            .map(|(p, stats)| u64::from(self.locate_leaf(p, stats)))
            .collect()
    }

    fn probe_page(
        &self,
        address: u64,
        group: &[(usize, Point)],
        response: &mut PointBatchResponse,
    ) {
        let leaf = &self.leaves[address as usize];
        // The page is fetched lazily, once for the whole group: probes
        // outside the leaf's tight bounding box answer without touching it,
        // exactly like the sequential probe.
        let mut page: Option<&Page> = None;
        for &(slot, p) in group {
            if leaf.count == 0 || !leaf.bbox.contains(&p) {
                continue;
            }
            let page = *page.get_or_insert_with(|| {
                response.shared.pages_scanned += 1;
                self.store.page(leaf.page)
            });
            // Per-probe comparisons are charged by `Page::probe`'s one
            // canonical rule — only the page visit itself moved to the
            // shared stats above.
            let stats = &mut response.per_query[slot];
            if page.probe_shared(&p, stats) {
                stats.results += 1;
                response.found[slot] = true;
            }
        }
    }
}

/// A consumer of the scan kernel: receives every page whose leaf bounding
/// box overlaps the query, in leaf order.
pub(crate) trait RangeVisitor {
    /// Processes one relevant page. Implementations are expected to charge
    /// `stats` through the storage layer's scan primitives.
    fn visit_page(&mut self, page: &Page, query: &Rect, stats: &mut ExecStats);
}

/// Collects matching points into a result vector (the classic range query).
struct CollectVisitor {
    out: Vec<Point>,
}

impl RangeVisitor for CollectVisitor {
    fn visit_page(&mut self, page: &Page, query: &Rect, stats: &mut ExecStats) {
        page.filter_into(query, &mut self.out, stats);
    }
}

/// Counts matching points without materializing them.
struct CountVisitor {
    count: u64,
}

impl RangeVisitor for CountVisitor {
    fn visit_page(&mut self, page: &Page, query: &Rect, stats: &mut ExecStats) {
        self.count += page.count_in(query, stats);
    }
}

/// Streams matching points to a caller-supplied closure.
struct StreamVisitor<'a> {
    visit: &'a mut dyn FnMut(&Point),
    matched: u64,
}

impl RangeVisitor for StreamVisitor<'_> {
    fn visit_page(&mut self, page: &Page, query: &Rect, stats: &mut ExecStats) {
        let visit = &mut *self.visit;
        let matched = &mut self.matched;
        page.for_each_in(query, stats, |p| {
            *matched += 1;
            visit(p);
        });
    }
}

impl ZIndex {
    /// Algorithm 1: descends from the root to the leaf whose cell contains
    /// `p`, returning its index in the leaf list.
    pub(crate) fn locate_leaf(&self, p: &Point, stats: &mut ExecStats) -> u32 {
        let mut node = self.root;
        loop {
            match node {
                NodeRef::Leaf(i) => return i,
                NodeRef::Internal(i) => {
                    stats.nodes_visited += 1;
                    node = self.nodes[i as usize].child_for(p);
                }
            }
        }
    }

    /// The scan kernel (Algorithm 2 + Section 5 skipping): walks the leaf
    /// interval spanned by the query corners, follows look-ahead pointers
    /// over irrelevant runs when skipping is enabled, and hands every
    /// overlapping leaf's page to `visitor` — no intermediate list of
    /// relevant leaves is materialized.
    ///
    /// Timing: page visits are accumulated as scan-phase time, everything
    /// else (corner location, bounding-box checks, pointer hops) as
    /// projection-phase time, matching the split of Figure 9. The clock is
    /// read once per *run* of consecutive page visits — a run opens at the
    /// first overlapping leaf and closes at the first non-overlapping one
    /// or at loop exit — so a run's few nanoseconds of loop overhead count
    /// as scan time and the clock itself stays off the per-page path.
    fn scan_range<V: RangeVisitor>(&self, query: &Rect, stats: &mut ExecStats, visitor: &mut V) {
        let kernel_start = Instant::now();
        let mut scan_ns = 0u64;
        if !self.leaves.is_empty() {
            let low = self.locate_leaf(&query.bl(), stats);
            let high = self.locate_leaf(&query.tr(), stats);
            debug_assert!(low <= high, "monotone orderings visit BL before TR");
            let skipping = self.skipping_enabled();
            let mut run_start: Option<Instant> = None;
            let mut i = low;
            while i <= high {
                let leaf = &self.leaves[i as usize];
                stats.bbs_checked += 1;
                if !leaf.bbox.is_empty() && leaf.bbox.overlaps(query) {
                    run_start.get_or_insert_with(Instant::now);
                    visitor.visit_page(self.store.page(leaf.page), query, stats);
                    i += 1;
                    continue;
                }
                if let Some(start) = run_start.take() {
                    scan_ns += start.elapsed().as_nanos() as u64;
                }
                let next = skip_target(leaf, query, i, high, skipping);
                stats.leaves_skipped += u64::from(next - (i + 1));
                i = next;
            }
            if let Some(start) = run_start {
                scan_ns += start.elapsed().as_nanos() as u64;
            }
        }
        stats.charge_kernel(kernel_start.elapsed().as_nanos() as u64, scan_ns);
    }

    /// Materializing range query: returns every indexed point inside
    /// `query`.
    pub(crate) fn execute_range_query(&self, query: &Rect, stats: &mut ExecStats) -> Vec<Point> {
        let mut visitor = CollectVisitor { out: Vec::new() };
        self.scan_range(query, stats, &mut visitor);
        stats.results += visitor.out.len() as u64;
        visitor.out
    }

    /// Counting range query: the size of the result set, computed without
    /// materializing it.
    pub(crate) fn execute_range_count(&self, query: &Rect, stats: &mut ExecStats) -> u64 {
        let mut visitor = CountVisitor { count: 0 };
        self.scan_range(query, stats, &mut visitor);
        stats.results += visitor.count;
        visitor.count
    }

    /// Streaming range query: invokes `visit` for every indexed point inside
    /// `query` without building an intermediate vector.
    pub(crate) fn execute_range_for_each(
        &self,
        query: &Rect,
        stats: &mut ExecStats,
        visit: &mut dyn FnMut(&Point),
    ) {
        let mut visitor = StreamVisitor { visit, matched: 0 };
        self.scan_range(query, stats, &mut visitor);
        stats.results += visitor.matched;
    }

    /// Point query: locate the owning leaf (Algorithm 1), then probe its
    /// page.
    pub(crate) fn execute_point_query(&self, p: &Point, stats: &mut ExecStats) -> bool {
        if self.leaves.is_empty() {
            return false;
        }
        let projection_start = Instant::now();
        let leaf = self.locate_leaf(p, stats);
        stats.add_projection(projection_start.elapsed());

        let scan_start = Instant::now();
        let leaf = &self.leaves[leaf as usize];
        let found = if leaf.count == 0 || !leaf.bbox.contains(p) {
            false
        } else {
            self.store.probe_page(leaf.page, p, stats)
        };
        stats.add_scan(scan_start.elapsed());
        if found {
            stats.results += 1;
        }
        found
    }
}
