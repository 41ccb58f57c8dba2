//! Shared R-tree machinery used by the STR and CUR baselines.
//!
//! Both baselines are *packed* R-trees: the leaf level is produced by a
//! bulk-loading algorithm (plain Sort-Tile-Recursive for STR, query-weighted
//! tiling for CUR) and the upper levels group consecutive packed leaves.
//! This module holds the common node structure, query processing and a
//! simple insert path (descend by least area enlargement, split overflowing
//! leaves), so the two baselines only differ in how the leaf pages are
//! packed.

use wazi_core::{
    BatchProjection, PointBatchKernel, PointBatchResponse, RangeBatchKernel, RangeBatchOutput,
    RangeBatchRequest, RangeBatchResponse, RangeBatchStats, ShardBounds, SweepInterval,
};
use wazi_geom::{Point, Rect};
use wazi_storage::{ExecStats, PageId, PageStore};

/// Maximum number of children of an internal R-tree node.
pub(crate) const NODE_FANOUT: usize = 16;

/// A node of the packed R-tree.
#[derive(Debug, Clone)]
pub(crate) enum RNode {
    /// An internal node: bounding box plus child node indices.
    Internal { mbr: Rect, children: Vec<u32> },
    /// A leaf node: bounding box plus the backing page.
    Leaf { mbr: Rect, page: PageId },
}

impl RNode {
    pub(crate) fn mbr(&self) -> Rect {
        match self {
            RNode::Internal { mbr, .. } | RNode::Leaf { mbr, .. } => *mbr,
        }
    }
}

/// A packed R-tree over a clustered page store.
#[derive(Debug, Clone)]
pub(crate) struct PackedRTree {
    pub(crate) nodes: Vec<RNode>,
    pub(crate) root: u32,
    pub(crate) store: PageStore,
    pub(crate) len: usize,
}

impl PackedRTree {
    /// Builds the tree bottom-up from already-packed leaf pages (one leaf
    /// node per page, in packing order).
    pub(crate) fn from_packed_pages(store: PageStore, len: usize) -> Self {
        let mut nodes: Vec<RNode> = store
            .pages()
            .map(|page| RNode::Leaf {
                mbr: page.bbox(),
                page: page.id(),
            })
            .collect();
        if nodes.is_empty() {
            // An empty tree still needs a root so queries have somewhere to
            // start; use an empty leaf over an empty page.
            let mut store = store;
            let page = store.allocate(Vec::new());
            return Self {
                nodes: vec![RNode::Leaf {
                    mbr: Rect::EMPTY,
                    page,
                }],
                root: 0,
                store,
                len,
            };
        }

        // Group consecutive nodes level by level until a single root remains.
        let mut level: Vec<u32> = (0..nodes.len() as u32).collect();
        while level.len() > 1 {
            let mut next_level = Vec::with_capacity(level.len() / NODE_FANOUT + 1);
            for chunk in level.chunks(NODE_FANOUT) {
                let mbr = chunk
                    .iter()
                    .fold(Rect::EMPTY, |acc, &i| acc.union(&nodes[i as usize].mbr()));
                let index = nodes.len() as u32;
                nodes.push(RNode::Internal {
                    mbr,
                    children: chunk.to_vec(),
                });
                next_level.push(index);
            }
            level = next_level;
        }
        let root = level[0];
        Self {
            nodes,
            root,
            store,
            len,
        }
    }

    /// The bounding rectangle of everything stored in the tree.
    pub(crate) fn root_mbr(&self) -> Rect {
        self.nodes[self.root as usize].mbr()
    }

    /// The range-scan kernel shared by every execution mode: traverses the
    /// tree, pruning by bounding box, and hands each overlapping leaf's page
    /// id to `on_page` as it is discovered — no page list is materialized.
    ///
    /// Timing: page visits are accumulated as scan-phase time, the tree
    /// traversal as projection-phase time (the split of Figure 9). The
    /// clock is read once per *run* of leaves popped back to back, not
    /// twice per page: a run opens at a leaf and closes at the next
    /// internal node or at loop exit.
    fn scan_range(
        &self,
        query: &Rect,
        stats: &mut ExecStats,
        mut on_page: impl FnMut(&PageStore, PageId, &mut ExecStats),
    ) {
        let kernel_start = std::time::Instant::now();
        let mut scan_ns = 0u64;
        let mut run_start: Option<std::time::Instant> = None;
        let mut stack = vec![self.root];
        while let Some(index) = stack.pop() {
            match &self.nodes[index as usize] {
                RNode::Internal { children, .. } => {
                    if let Some(start) = run_start.take() {
                        scan_ns += start.elapsed().as_nanos() as u64;
                    }
                    stats.nodes_visited += 1;
                    for &child in children {
                        stats.bbs_checked += 1;
                        if self.nodes[child as usize].mbr().overlaps(query) {
                            stack.push(child);
                        }
                    }
                }
                RNode::Leaf { page, .. } => {
                    run_start.get_or_insert_with(std::time::Instant::now);
                    on_page(&self.store, *page, stats);
                }
            }
        }
        if let Some(start) = run_start {
            scan_ns += start.elapsed().as_nanos() as u64;
        }
        stats.charge_kernel(kernel_start.elapsed().as_nanos() as u64, scan_ns);
    }

    /// Materializing range query.
    pub(crate) fn range_query(&self, query: &Rect, stats: &mut ExecStats) -> Vec<Point> {
        let mut result = Vec::new();
        self.scan_range(query, stats, |store, page, stats| {
            store.filter_page(page, query, &mut result, stats);
        });
        result
    }

    /// Counting range query: result-set size without materialization.
    pub(crate) fn range_count(&self, query: &Rect, stats: &mut ExecStats) -> u64 {
        let mut count = 0u64;
        self.scan_range(query, stats, |store, page, stats| {
            count += store.count_in(page, query, stats);
        });
        count
    }

    /// Streaming range query: `visit` is invoked for every matching point.
    pub(crate) fn range_for_each(
        &self,
        query: &Rect,
        stats: &mut ExecStats,
        visit: &mut dyn FnMut(&Point),
    ) -> u64 {
        let mut matched = 0u64;
        self.scan_range(query, stats, |store, page, stats| {
            store.for_each_in(page, query, stats, |p| {
                matched += 1;
                visit(p);
            });
        });
        matched
    }

    /// Point query: descend into every child whose bounding box contains the
    /// point (R-tree leaves may overlap after inserts).
    pub(crate) fn point_query(&self, p: &Point, stats: &mut ExecStats) -> bool {
        let mut stack = vec![self.root];
        while let Some(index) = stack.pop() {
            match &self.nodes[index as usize] {
                RNode::Internal { children, .. } => {
                    stats.nodes_visited += 1;
                    for &child in children {
                        stats.bbs_checked += 1;
                        if self.nodes[child as usize].mbr().contains(p) {
                            stack.push(child);
                        }
                    }
                }
                RNode::Leaf { page, .. } => {
                    if self.store.probe_page(*page, p, stats) {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// Inserts a point: descend by least area enlargement, append to the
    /// chosen leaf's page and split the leaf when it overflows.
    pub(crate) fn insert(&mut self, p: Point) {
        // Descend, remembering the path for MBR updates.
        let mut path = Vec::new();
        let mut current = self.root;
        while let RNode::Internal { children, .. } = &self.nodes[current as usize] {
            path.push(current);
            current = children
                .iter()
                .copied()
                .min_by(|&a, &b| {
                    let ea = enlargement(&self.nodes[a as usize].mbr(), &p);
                    let eb = enlargement(&self.nodes[b as usize].mbr(), &p);
                    ea.total_cmp(&eb)
                })
                .expect("internal nodes always have children");
        }
        path.push(current);

        // Append the point to the leaf page and grow MBRs along the path.
        let leaf_page = match &self.nodes[current as usize] {
            RNode::Leaf { page, .. } => *page,
            RNode::Internal { .. } => unreachable!("descent ends at a leaf"),
        };
        self.store.append(leaf_page, p);
        self.len += 1;
        for &index in &path {
            match &mut self.nodes[index as usize] {
                RNode::Internal { mbr, .. } | RNode::Leaf { mbr, .. } => mbr.expand(&p),
            }
        }

        if self.store.is_overflowing(leaf_page) {
            self.split_leaf(current, &path);
        }
    }

    /// Splits an overflowing leaf into two along the longer axis of its
    /// bounding box and attaches the new leaf to the parent (or a new root).
    fn split_leaf(&mut self, leaf_index: u32, path: &[u32]) {
        let (mbr, page) = match &self.nodes[leaf_index as usize] {
            RNode::Leaf { mbr, page } => (*mbr, *page),
            RNode::Internal { .. } => return,
        };
        let split_on_x = mbr.width() >= mbr.height();
        let points = self.store.page(page).to_vec();
        let mut coords: Vec<f64> = points
            .iter()
            .map(|q| if split_on_x { q.x } else { q.y })
            .collect();
        coords.sort_unstable_by(f64::total_cmp);
        let median = coords[coords.len() / 2];
        let pages = self.store.split_page(page, 2, |q| {
            usize::from(if split_on_x {
                q.x > median
            } else {
                q.y > median
            })
        });
        // Refresh the original leaf and create the sibling.
        let first_bbox = self.store.page(pages[0]).bbox();
        let second_bbox = self.store.page(pages[1]).bbox();
        self.nodes[leaf_index as usize] = RNode::Leaf {
            mbr: first_bbox,
            page: pages[0],
        };
        let sibling = self.nodes.len() as u32;
        self.nodes.push(RNode::Leaf {
            mbr: second_bbox,
            page: pages[1],
        });

        // Attach the sibling to the parent. Packed parents may grow beyond
        // the packing fanout after many inserts; that trades some balance for
        // simplicity, which matches the role of these baselines (bulk-loaded
        // structures receiving a moderate volume of inserts in Figure 11).
        let parent = path.iter().rev().nth(1).copied();
        match parent {
            Some(parent_index) => {
                if let RNode::Internal { children, .. } = &mut self.nodes[parent_index as usize] {
                    children.push(sibling);
                }
            }
            None => {
                // The split leaf was the root: grow a new root above the two
                // halves.
                let mbr = self.nodes[leaf_index as usize]
                    .mbr()
                    .union(&self.nodes[sibling as usize].mbr());
                let new_root = self.nodes.len() as u32;
                self.nodes.push(RNode::Internal {
                    mbr,
                    children: vec![leaf_index, sibling],
                });
                self.root = new_root;
            }
        }
    }

    /// Approximate structure size in bytes (excluding the clustered data
    /// pages, consistent with the other indexes).
    pub(crate) fn size_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self
                .nodes
                .iter()
                .map(|n| {
                    std::mem::size_of::<RNode>()
                        + match n {
                            RNode::Internal { children, .. } => {
                                children.capacity() * std::mem::size_of::<u32>()
                            }
                            RNode::Leaf { .. } => 0,
                        }
                })
                .sum::<usize>()
    }

    /// Height of the tree (leaf-only tree has height 1).
    pub(crate) fn height(&self) -> usize {
        fn depth(tree: &PackedRTree, node: u32) -> usize {
            match &tree.nodes[node as usize] {
                RNode::Leaf { .. } => 1,
                RNode::Internal { children, .. } => {
                    1 + children.iter().map(|&c| depth(tree, c)).max().unwrap_or(0)
                }
            }
        }
        depth(self, self.root)
    }
}

impl PackedRTree {
    /// The first leaf page the sequential [`PackedRTree::point_query`] walk
    /// would probe for `p`, computed without charging anything (the fused
    /// probe re-runs the walk with full accounting). `None` when no leaf's
    /// bounding box contains the point.
    fn first_probe_page(&self, p: &Point) -> Option<PageId> {
        let mut stack = vec![self.root];
        while let Some(index) = stack.pop() {
            match &self.nodes[index as usize] {
                RNode::Internal { children, .. } => {
                    for &child in children {
                        if self.nodes[child as usize].mbr().contains(p) {
                            stack.push(child);
                        }
                    }
                }
                RNode::Leaf { page, .. } => return Some(*page),
            }
        }
        None
    }

    /// One uncharged pruning descent over a whole batch: every node is
    /// reached once, with the requests whose solo walk reaches it (the
    /// root with all of them, a child with those overlapping its bounding
    /// box). `on_node` sees each reached node and its active requests.
    fn batch_descent(
        &self,
        requests: &[RangeBatchRequest],
        mut on_node: impl FnMut(&RNode, &[usize]),
    ) {
        let mut stack: Vec<(u32, Vec<usize>)> = vec![(self.root, (0..requests.len()).collect())];
        while let Some((index, active)) = stack.pop() {
            let node = &self.nodes[index as usize];
            on_node(node, &active);
            if let RNode::Internal { children, .. } = node {
                for &child in children {
                    let child_mbr = self.nodes[child as usize].mbr();
                    let child_active: Vec<usize> = active
                        .iter()
                        .copied()
                        .filter(|&qi| child_mbr.overlaps(&requests[qi].rect))
                        .collect();
                    if !child_active.is_empty() {
                        stack.push((child, child_active));
                    }
                }
            }
        }
    }
}

/// The packed R-tree's fused range kernel: the sweep address space is the
/// clustered page list (pages are allocated in packing order, so nearby
/// addresses hold spatially nearby leaves). A request's interval is the
/// hull `[first, last]` of the leaf pages its solo walk reaches — purely an
/// ownership and load-balancing hint: [`RangeBatchKernel::sweep_shard`]
/// re-runs the pruning descent for the requests it owns, so per-request
/// counters never depend on the interval's tightness.
impl RangeBatchKernel for PackedRTree {
    /// One uncharged pruning descent over the whole batch, recording the
    /// page-address hull every request reaches. Requests overlapping no
    /// leaf project onto `[0, 0]` so they still have exactly one owner
    /// (their walk dies near the root, wherever it executes).
    fn project_batch(&self, requests: &[RangeBatchRequest]) -> BatchProjection {
        let start = std::time::Instant::now();
        let mut hulls: Vec<Option<(u32, u32)>> = vec![None; requests.len()];
        self.batch_descent(requests, |node, active| {
            if let RNode::Leaf { page, .. } = node {
                for &qi in active {
                    let hull = hulls[qi].get_or_insert((page.0, page.0));
                    hull.0 = hull.0.min(page.0);
                    hull.1 = hull.1.max(page.0);
                }
            }
        });
        BatchProjection {
            intervals: hulls
                .into_iter()
                .map(|hull| {
                    let (lo, hi) = hull.unwrap_or((0, 0));
                    SweepInterval { lo, hi }
                })
                .collect(),
            per_query: vec![ExecStats::default(); requests.len()],
            elapsed_ns: start.elapsed().as_nanos() as u64,
        }
    }

    /// The fused batch descent for the requests one shard owns
    /// ([`BatchProjection::owned_by`]): one traversal of the tree carrying
    /// an *active-query set* per node. A node overlapped by `k` of the
    /// owned queries is fetched once, not `k` times; per-query pruning
    /// replicates the sequential [`PackedRTree::scan_range`] stack
    /// discipline exactly (children pushed in order, popped LIFO), so every
    /// query's node visits, bounding-box checks, point comparisons and
    /// result order are identical to its solo walk for every shard plan —
    /// only the physical page visit moves to the shared stats, charged once
    /// per reached leaf. A page inside several owners' hulls is fetched at
    /// most once per shard, never more than the sequential once-per-query.
    fn sweep_shard(
        &self,
        requests: &[RangeBatchRequest],
        projection: &BatchProjection,
        bounds: ShardBounds,
    ) -> RangeBatchResponse {
        let mut response = RangeBatchResponse::zeroed(requests);
        let owned: Vec<usize> = projection
            .owned_by(bounds)
            .into_iter()
            .map(|(_, qi)| qi)
            .collect();
        if owned.is_empty() {
            return response;
        }
        let kernel_start = std::time::Instant::now();
        let mut scan_ns = 0u64;
        let mut stack: Vec<(u32, Vec<usize>)> = vec![(self.root, owned)];
        while let Some((index, active)) = stack.pop() {
            match &self.nodes[index as usize] {
                RNode::Internal { children, .. } => {
                    for &qi in &active {
                        response.per_query[qi].nodes_visited += 1;
                    }
                    for &child in children {
                        let child_mbr = self.nodes[child as usize].mbr();
                        let mut child_active = Vec::new();
                        for &qi in &active {
                            response.per_query[qi].bbs_checked += 1;
                            if child_mbr.overlaps(&requests[qi].rect) {
                                child_active.push(qi);
                            }
                        }
                        if !child_active.is_empty() {
                            stack.push((child, child_active));
                        }
                    }
                }
                RNode::Leaf { page, .. } => {
                    // One page fetch on behalf of every query that reached
                    // the leaf; point comparisons stay attributed per query.
                    let scan_start = std::time::Instant::now();
                    response.shared.pages_scanned += 1;
                    let page = self.store.page(*page);
                    for &qi in &active {
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
            }
        }
        response
            .shared
            .charge_kernel(kernel_start.elapsed().as_nanos() as u64, scan_ns);
        response
    }

    /// Exact: the same uncharged descent as [`RangeBatchKernel::project_batch`]
    /// reaches exactly the nodes each solo walk reaches. A reached internal
    /// node costs each of its active requests one check per child, and a
    /// reached leaf one visit of its page — once per batch to a fused
    /// sweep.
    fn footprint(
        &self,
        requests: &[RangeBatchRequest],
        _projection: &BatchProjection,
    ) -> RangeBatchStats {
        let mut stats = RangeBatchStats {
            per_request: vec![0; requests.len()],
            ..RangeBatchStats::default()
        };
        self.batch_descent(requests, |node, active| {
            let walkers = active.len() as u64;
            let work = match node {
                RNode::Internal { children, .. } => {
                    let checks = children.len() as u64;
                    stats.checks += checks * walkers;
                    checks
                }
                RNode::Leaf { page, .. } => {
                    let points = self.store.page(*page).len() as u64;
                    stats.page_visits += walkers;
                    stats.distinct_pages += 1;
                    stats.points += points * walkers;
                    points
                }
            };
            for &qi in active {
                stats.per_request[qi] += work;
            }
        });
        stats
    }
}

/// Sentinel address for probes no leaf bounding box contains: their walk
/// dies in the upper tree without touching a page, so there is nothing to
/// share — they group together and answer `false` after their (charged)
/// descent.
const NO_PROBE_PAGE: u64 = u64::MAX;

/// The packed R-tree's fused point-probe kernel. R-tree leaves may overlap
/// (especially after inserts), so a probe has no single owning leaf by
/// construction; the grouping address is the *first* page the sequential
/// probe walk touches — on packed trees, almost always the only one. The
/// group's shared first-page fetch is charged once per batch; each probe
/// then replays its full sequential walk (descent charges, early exit on
/// the first hit, per-page point comparisons), so answers and per-probe
/// counters are exactly [`PackedRTree::point_query`]'s.
///
/// Cost profile: the uncharged grouping descent in
/// [`PointBatchKernel::locate_probes`] means every probe walks the upper
/// tree twice (a correct grouping key *is* the walk's first leaf — a
/// cheaper key would misattribute the shared page charge). The in-memory
/// descent is small next to a page scan, so the kernel wins wherever
/// probes share owning pages (hot keys, duplicates) and pays a bounded
/// CPU overhead on spread-out batches; the batch experiment reports both
/// sides of that trade.
impl PointBatchKernel for PackedRTree {
    fn locate_probes(&self, probes: &[Point], _per_query: &mut [ExecStats]) -> Vec<u64> {
        probes
            .iter()
            .map(|p| {
                self.first_probe_page(p)
                    .map_or(NO_PROBE_PAGE, |page| u64::from(page.0))
            })
            .collect()
    }

    fn probe_page(
        &self,
        address: u64,
        group: &[(usize, Point)],
        response: &mut PointBatchResponse,
    ) {
        // One shared fetch of the group's common first page; probes of the
        // no-page group visit nothing.
        if address != NO_PROBE_PAGE {
            response.shared.pages_scanned += 1;
        }
        for &(slot, p) in group {
            let stats = &mut response.per_query[slot];
            let mut found = false;
            let mut stack = vec![self.root];
            while let Some(index) = stack.pop() {
                match &self.nodes[index as usize] {
                    RNode::Internal { children, .. } => {
                        stats.nodes_visited += 1;
                        for &child in children {
                            stats.bbs_checked += 1;
                            if self.nodes[child as usize].mbr().contains(&p) {
                                stack.push(child);
                            }
                        }
                    }
                    RNode::Leaf { page, .. } => {
                        // The group's shared first page charges no
                        // per-probe page visit (it moved to the shared
                        // stats above); comparisons are charged by the one
                        // canonical rule either way.
                        found = if u64::from(page.0) == address {
                            self.store.page(*page).probe_shared(&p, stats)
                        } else {
                            self.store.probe_page(*page, &p, stats)
                        };
                        if found {
                            break;
                        }
                    }
                }
            }
            if found {
                stats.results += 1;
                response.found[slot] = true;
            }
        }
    }
}

/// Area enlargement required for `mbr` to include `p` (the ChooseLeaf
/// criterion of the classic R-tree insert).
fn enlargement(mbr: &Rect, p: &Point) -> f64 {
    if mbr.is_empty() {
        return 0.0;
    }
    let mut grown = *mbr;
    grown.expand(p);
    grown.area() - mbr.area()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn packed_tree(n: usize) -> PackedRTree {
        // Pack points row-by-row into pages of 8.
        let mut store = PageStore::new(8);
        let points: Vec<Point> = (0..n)
            .map(|i| Point::new((i % 32) as f64 / 32.0, (i / 32) as f64 / 32.0))
            .collect();
        for chunk in points.chunks(8) {
            store.allocate_slice(chunk);
        }
        PackedRTree::from_packed_pages(store, n)
    }

    #[test]
    fn range_and_point_queries_are_exact() {
        let tree = packed_tree(500);
        let mut stats = ExecStats::default();
        let query = Rect::from_coords(0.1, 0.1, 0.4, 0.3);
        let got = tree.range_query(&query, &mut stats);
        let expected = (0..500)
            .map(|i| Point::new((i % 32) as f64 / 32.0, (i / 32) as f64 / 32.0))
            .filter(|p| query.contains(p))
            .count();
        assert_eq!(got.len(), expected);
        assert!(tree.point_query(&Point::new(0.0, 0.0), &mut stats));
        assert!(!tree.point_query(&Point::new(0.99, 0.99), &mut stats));
        assert!(stats.bbs_checked > 0);
        assert!(stats.nodes_visited > 0);
    }

    #[test]
    fn empty_tree_has_a_root_and_answers_queries() {
        let tree = PackedRTree::from_packed_pages(PageStore::new(8), 0);
        let mut stats = ExecStats::default();
        assert!(tree.range_query(&Rect::UNIT, &mut stats).is_empty());
        assert!(!tree.point_query(&Point::new(0.5, 0.5), &mut stats));
        assert_eq!(tree.height(), 1);
    }

    #[test]
    fn upper_levels_respect_fanout() {
        let tree = packed_tree(2_000);
        // 2000 points / 8 per page = 250 leaves; with fanout 16 the tree
        // needs 3 levels (250 -> 16 -> 1).
        assert_eq!(tree.height(), 3);
        assert!(tree.size_bytes() > 0);
    }

    #[test]
    fn inserts_keep_queries_correct_and_split_leaves() {
        let mut tree = packed_tree(200);
        let page_count_before = tree.store.page_count();
        let mut rng_points = Vec::new();
        for i in 0..200 {
            let p = Point::new((i as f64 * 0.37) % 1.0, (i as f64 * 0.73) % 1.0);
            rng_points.push(p);
            tree.insert(p);
        }
        assert_eq!(tree.len, 400);
        assert!(
            tree.store.page_count() > page_count_before,
            "splits happened"
        );
        let mut stats = ExecStats::default();
        let query = Rect::from_coords(0.2, 0.2, 0.6, 0.6);
        let got = tree.range_query(&query, &mut stats);
        let expected = (0..200)
            .map(|i| Point::new((i % 32) as f64 / 32.0, (i / 32) as f64 / 32.0))
            .chain(rng_points.iter().copied())
            .filter(|p| query.contains(p))
            .count();
        assert_eq!(got.len(), expected);
        for p in &rng_points {
            assert!(tree.point_query(p, &mut stats));
        }
    }
}
