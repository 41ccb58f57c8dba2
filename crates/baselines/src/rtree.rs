//! Shared R-tree machinery used by the STR and CUR baselines.
//!
//! Both baselines are *packed* R-trees: the leaf level is produced by a
//! bulk-loading algorithm (plain Sort-Tile-Recursive for STR, query-weighted
//! tiling for CUR) and the upper levels group consecutive packed leaves.
//! This module holds the common node structure, query processing and a
//! simple insert path (descend by least area enlargement, split overflowing
//! leaves), so the two baselines only differ in how the leaf pages are
//! packed.

use wazi_core::{RangeBatchKernel, RangeBatchOutput, RangeBatchRequest, WalkRecord};
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

    /// The point probe's walk from `node`: depth first into every child
    /// whose bounding box contains the point (R-tree leaves may overlap
    /// after inserts), last child first, charging each internal node's
    /// visit and checks, and probing the reached leaves' pages until one
    /// holds the point. Every page probed is charged its visit but
    /// `located`, whose visit the engine charges.
    fn probe_walk(
        &self,
        node: u32,
        p: &Point,
        located: Option<u32>,
        stats: &mut ExecStats,
    ) -> bool {
        match &self.nodes[node as usize] {
            RNode::Internal { children, .. } => {
                stats.nodes_visited += 1;
                stats.bbs_checked += children.len() as u64;
                children
                    .iter()
                    .rev()
                    .filter(|&&child| self.nodes[child as usize].mbr().contains(p))
                    .any(|&child| self.probe_walk(child, p, located, stats))
            }
            RNode::Leaf { page, .. } => {
                stats.pages_scanned += u64::from(located != Some(page.0));
                self.store.page(*page).probe_shared(p, stats)
            }
        }
    }

    /// The first page [`PackedRTree::probe_walk`] from `node` probes for
    /// `p`, found without charging anything; `None` when the walk reaches
    /// no leaf.
    fn first_probe_page(&self, node: u32, p: &Point) -> Option<u32> {
        match &self.nodes[node as usize] {
            RNode::Internal { children, .. } => children
                .iter()
                .rev()
                .filter(|&&child| self.nodes[child as usize].mbr().contains(p))
                .find_map(|&child| self.first_probe_page(child, p)),
            RNode::Leaf { page, .. } => Some(page.0),
        }
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

/// The packed R-tree's kernel: a range request's unit is a leaf page, and
/// its id is the order in which the batch descent first reaches it. The
/// descent is depth-first, popped LIFO, and a single request's walk
/// reaches a subset of its nodes closed under parents, so each request's
/// leaves come in the order its walk alone would reach them and its run is
/// ascending. The record maps each id to its page. A probe's unit is the
/// first page its walk probes, its id the page id.
impl RangeBatchKernel for PackedRTree {
    /// One pruning descent over the whole batch, carrying the requests
    /// whose walk reaches each node: a reached internal node charges each
    /// of them its visit and one check per child, and a reached leaf joins
    /// each of their runs.
    ///
    /// A stack entry's requests are a range of one shared id buffer. Entries
    /// are popped in reverse push order, so when an entry is popped every
    /// id past its range belongs to an entry already done, and the buffer
    /// is cut back before the entry's children append theirs. Units are
    /// numbered in reach order; the reached leaves are collected as
    /// `(request, unit)` pairs and counting-sorted by request into the
    /// runs, each still ascending.
    fn walk(&self, requests: &[RangeBatchRequest]) -> WalkRecord {
        let mut record = WalkRecord {
            per_query: vec![ExecStats::default(); requests.len()],
            ..WalkRecord::default()
        };
        // Every buffer starts at one node's fanout per request. Grown from
        // empty, a solo walk regrows each of them level by level, and those
        // reallocations made solo STR/CUR queries about a quarter slower.
        let capacity = requests.len() * NODE_FANOUT;
        let mut ids: Vec<u32> = Vec::with_capacity(capacity);
        ids.extend(0..requests.len() as u32);
        let mut stack = Vec::with_capacity(capacity);
        stack.push((self.root, 0u32, ids.len() as u32));
        let mut reached: Vec<(u32, u32)> = Vec::with_capacity(capacity);
        record.handles.reserve(capacity);
        while let Some((index, start, end)) = stack.pop() {
            let (start, end) = (start as usize, end as usize);
            ids.truncate(end);
            match &self.nodes[index as usize] {
                RNode::Internal { children, .. } => {
                    for &qi in &ids[start..end] {
                        let stats = &mut record.per_query[qi as usize];
                        stats.nodes_visited += 1;
                        stats.bbs_checked += children.len() as u64;
                    }
                    for &child in children {
                        let child_mbr = self.nodes[child as usize].mbr();
                        let from = ids.len() as u32;
                        for at in start..end {
                            let qi = ids[at];
                            if child_mbr.overlaps(&requests[qi as usize].rect) {
                                ids.push(qi);
                            }
                        }
                        if ids.len() as u32 > from {
                            stack.push((child, from, ids.len() as u32));
                        }
                    }
                }
                RNode::Leaf { page, .. } => {
                    let unit = record.handles.len() as u32;
                    record.handles.push(page.0);
                    record.points += (self.store.page(*page).len() * (end - start)) as u64;
                    reached.extend(ids[start..end].iter().map(|&qi| (qi, unit)));
                }
            }
        }
        // Counting sort of the reached leaves by request: each slot starts
        // at its run's first position and ends past its last one, which is
        // the next run's offset.
        let mut slots = vec![0u32; requests.len() + 1];
        for &(qi, _) in &reached {
            slots[qi as usize + 1] += 1;
        }
        for qi in 1..slots.len() {
            slots[qi] += slots[qi - 1];
        }
        record.units = vec![0; reached.len()];
        for (qi, unit) in reached {
            let slot = &mut slots[qi as usize];
            record.units[*slot as usize] = unit;
            *slot += 1;
        }
        slots.rotate_right(1);
        slots[0] = 0;
        record.offsets = slots;
        record
    }

    fn scan(&self, page: u32, rect: &Rect, output: &mut RangeBatchOutput, stats: &mut ExecStats) {
        output.scan_page(self.store.page(PageId(page)), rect, stats);
    }

    /// The first page the probe's walk probes. A probe no leaf holds reads
    /// no page and is charged its whole walk here.
    fn locate(&self, p: &Point, stats: &mut ExecStats) -> Option<u32> {
        let page = self.first_probe_page(self.root, p);
        if page.is_none() {
            self.probe_walk(self.root, p, None, stats);
        }
        page
    }

    /// Replays the whole walk, charged as the solo probe charges it but
    /// for the located page's visit. On packed trees the located page is
    /// almost always the only one, so probes sharing it share its fetch.
    fn probe(&self, page: u32, p: &Point, stats: &mut ExecStats) -> bool {
        self.probe_walk(self.root, p, Some(page), stats)
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
    use wazi_core::{solo_point_query, solo_range_query};

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
        let got = solo_range_query(&tree, &query, &mut stats);
        let expected = (0..500)
            .map(|i| Point::new((i % 32) as f64 / 32.0, (i / 32) as f64 / 32.0))
            .filter(|p| query.contains(p))
            .count();
        assert_eq!(got.len(), expected);
        assert!(solo_point_query(&tree, &Point::new(0.0, 0.0), &mut stats));
        assert!(!solo_point_query(
            &tree,
            &Point::new(0.99, 0.99),
            &mut stats
        ));
        assert!(stats.bbs_checked > 0);
        assert!(stats.nodes_visited > 0);
    }

    #[test]
    fn empty_tree_has_a_root_and_answers_queries() {
        let tree = PackedRTree::from_packed_pages(PageStore::new(8), 0);
        let mut stats = ExecStats::default();
        assert!(solo_range_query(&tree, &Rect::UNIT, &mut stats).is_empty());
        assert!(!solo_point_query(&tree, &Point::new(0.5, 0.5), &mut stats));
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
        let got = solo_range_query(&tree, &query, &mut stats);
        let expected = (0..200)
            .map(|i| Point::new((i % 32) as f64 / 32.0, (i / 32) as f64 / 32.0))
            .chain(rng_points.iter().copied())
            .filter(|p| query.contains(p))
            .count();
        assert_eq!(got.len(), expected);
        for p in &rng_points {
            assert!(solo_point_query(&tree, p, &mut stats));
        }
    }
}
