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
    PointBatchKernel, PointBatchResponse, RangeBatchKernel, RangeBatchOutput, RangeBatchRequest,
    WalkRecord,
};
use crate::node::{Leaf, NodeRef, LOOKAHEAD_END};
use std::time::Instant;
use wazi_geom::{Point, Rect};
use wazi_storage::{ExecStats, Page};

/// The Z-index's fused range kernel: a unit is a leaf, and a request's run
/// lists the leaves its walk scans in ascending leaf index — the order
/// the solo scan (`ZIndex::scan_range`) visits them.
impl RangeBatchKernel for ZIndex {
    /// Walks every request exactly as the solo scan does —
    /// Algorithm 1 for both corners, a check per leaf stepped on, a
    /// look-ahead jump past each irrelevant one (§5) — recording the
    /// overlapping leaves instead of scanning their pages.
    fn walk(&self, requests: &[RangeBatchRequest]) -> WalkRecord {
        let skipping = self.skipping_enabled();
        let mut record = WalkRecord::new(requests.len());
        for (qi, request) in requests.iter().enumerate() {
            let (rect, stats) = (&request.rect, &mut record.per_query[qi]);
            let low = self.locate_leaf(&rect.bl(), stats);
            let high = self.locate_leaf(&rect.tr(), stats);
            debug_assert!(low <= high, "monotone orderings visit BL before TR");
            let mut i = low;
            while i <= high {
                let leaf = &self.leaves[i as usize];
                stats.bbs_checked += 1;
                if !leaf.bbox.is_empty() && leaf.bbox.overlaps(rect) {
                    record.units.push(i);
                    record.points += leaf.count as u64;
                    i += 1;
                } else {
                    let next = skip_target(leaf, rect, i, high, skipping);
                    stats.leaves_skipped += u64::from(next - (i + 1));
                    i = next;
                }
            }
            record.end_run();
        }
        record
    }

    fn scan(&self, leaf: u32, rect: &Rect, output: &mut RangeBatchOutput, stats: &mut ExecStats) {
        let page = self.store.page(self.leaves[leaf as usize].page);
        output.scan_page(page, rect, stats);
    }
}

/// Where a walk goes after finding leaf `i` irrelevant to `query`: the next
/// leaf, or — with skipping on — as far as the leaf's look-ahead pointers
/// for the query's irrelevancy criteria allow (§5). A pointer past the end
/// of the leaf list ends the walk at `high + 1`. The one definition of the
/// jump, shared by the solo scan and the batch walk.
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
