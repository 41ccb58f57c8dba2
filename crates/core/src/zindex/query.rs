//! Query execution: the Z-index's walk and its point probe's locate.
//!
//! Every range read of the Z-index — a solo range query in any of its three
//! modes, the candidate collection behind kNN, and every batch schedule —
//! is one walk, [`RangeBatchKernel::walk`]: Algorithm 1 locates the leaves of
//! the query's corners, Algorithm 2 steps over the leaf interval
//! `[leaf(BL(q)) : leaf(TR(q))]`, and the look-ahead pointers of Section 5
//! jump past irrelevant runs. The walk only records the overlapping leaves;
//! the engine reads them ([`RangeBatchKernel::scan`] filters one leaf's page
//! for one request), so a solo query is the one-request batch replayed. A
//! point probe's walk is Algorithm 1 alone ([`RangeBatchKernel::locate`]):
//! it names the one leaf whose page the probe reads.
//!
//! The paper's cost model (Eq. 5) charges queries by bounding boxes checked
//! and points compared; because every path is the same walk and the same
//! page filter, those counters are identical whichever execution mode or
//! schedule the caller picks — only the per-match work differs.

use super::ZIndex;
use crate::engine::{RangeBatchKernel, RangeBatchOutput, RangeBatchRequest, WalkRecord};
use crate::node::{Leaf, NodeRef, LOOKAHEAD_END};
use wazi_geom::{Point, Rect};
use wazi_storage::ExecStats;

/// The Z-index's kernel: a unit is a leaf, and a request's run lists the
/// leaves its walk reaches, in ascending leaf index; a probe's unit is the
/// leaf its Algorithm 1 descent ends in.
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

    /// Algorithm 1 down to the leaf whose cell holds `p`, charged per
    /// internal node; a probe outside the leaf's tight bounding box reads
    /// no page.
    fn locate(&self, p: &Point, stats: &mut ExecStats) -> Option<u32> {
        if self.leaves.is_empty() {
            return None;
        }
        let i = self.locate_leaf(p, stats);
        let leaf = &self.leaves[i as usize];
        (leaf.count > 0 && leaf.bbox.contains(p)).then_some(i)
    }

    fn probe(&self, leaf: u32, p: &Point, stats: &mut ExecStats) -> bool {
        let page = self.store.page(self.leaves[leaf as usize].page);
        page.probe_shared(p, stats)
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

    /// The kNN seed radius ([`crate::SpatialIndex::knn_seed_radius`]): one
    /// Algorithm 1 descent toward `q`, charged like
    /// [`ZIndex::locate_leaf`], keeps the smallest cell on its path holding
    /// at least `k` points — an internal node or the leaf — and sizes the
    /// first ring for that cell's density, `sqrt(k · area(cell) /
    /// count(cell))`. `None` (the uniform radius) when `q` lies outside the
    /// data space, no cell on the path holds `k` points, or the cell has no
    /// finite positive area.
    pub(crate) fn knn_seed(&self, q: &Point, k: usize, stats: &mut ExecStats) -> Option<f64> {
        if self.leaves.is_empty() || !self.data_space.contains(q) {
            return None;
        }
        let mut cell = None;
        let mut node = self.root;
        loop {
            match node {
                NodeRef::Internal(i) => {
                    stats.nodes_visited += 1;
                    let internal = &self.nodes[i as usize];
                    if internal.count >= k {
                        cell = Some((internal.region, internal.count));
                    }
                    node = internal.child_for(q);
                }
                NodeRef::Leaf(i) => {
                    let leaf = &self.leaves[i as usize];
                    if leaf.count >= k {
                        cell = Some((leaf.region, leaf.count));
                    }
                    break;
                }
            }
        }
        let (region, count) = cell?;
        let radius = (k as f64 * region.area() / count as f64).sqrt();
        (radius.is_finite() && radius > 0.0).then_some(radius)
    }
}
