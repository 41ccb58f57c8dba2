//! Query execution: the Z-index's walk and its point probe.
//!
//! Every range read of the Z-index — a solo range query in any of its three
//! modes, the candidate collection behind kNN, and every batch schedule —
//! is one walk, [`RangeBatchKernel::walk`]: Algorithm 1 locates the leaves of
//! the query's corners, Algorithm 2 steps over the leaf interval
//! `[leaf(BL(q)) : leaf(TR(q))]`, and the look-ahead pointers of Section 5
//! jump past irrelevant runs. The walk only records the overlapping leaves;
//! the engine reads them ([`RangeBatchKernel::scan`] filters one leaf's page
//! for one request), so a solo query is the one-request batch replayed.
//!
//! The paper's cost model (Eq. 5) charges queries by bounding boxes checked
//! and points compared; because every path is the same walk and the same
//! page filter, those counters are identical whichever execution mode or
//! schedule the caller picks — only the per-match work differs.

use super::ZIndex;
use crate::engine::{
    PointBatchKernel, PointBatchResponse, RangeBatchKernel, RangeBatchOutput, RangeBatchRequest,
    WalkRecord,
};
use crate::node::{Leaf, NodeRef, LOOKAHEAD_END};
use std::time::Instant;
use wazi_geom::{Point, Rect};
use wazi_storage::{ExecStats, Page};

/// The Z-index's range kernel: a unit is a leaf, and a request's run lists
/// the leaves its walk reaches, in ascending leaf index.
impl RangeBatchKernel for ZIndex {
    /// Walks every request — Algorithm 1 for both corners, a check per leaf
    /// stepped on, a look-ahead jump past each irrelevant one (§5) —
    /// recording the overlapping leaves instead of scanning their pages.
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
/// of the leaf list ends the walk at `high + 1`.
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
