//! Update processing (Section 6.7): inserts, deletes, leaf splits and
//! look-ahead pointer maintenance.
//!
//! Updates keep the clustered layout intact: an insert descends to the
//! owning leaf (remembering the internal path for subtree counts), appends
//! to the leaf's page and splits the page along the data medians when it
//! overflows. Split leaves receive conservative look-ahead pointers (their
//! plain successor), which preserves the skipping safety invariant until
//! [`ZIndex::rebuild_lookahead`] restores maximally skipping pointers.

use super::ZIndex;
use crate::index::IndexError;
use crate::lookahead::build_lookahead;
use crate::node::{InternalNode, Leaf, Lookahead, NodeRef, LOOKAHEAD_END};
use wazi_geom::{CellOrdering, Point, Quadrant, Rect};

impl ZIndex {
    /// Like [`ZIndex::locate_leaf`] but records the internal path so update
    /// operations can maintain subtree counts and rewire split leaves.
    fn locate_leaf_with_path(&self, p: &Point) -> (u32, Vec<(u32, usize)>) {
        let mut node = self.root;
        let mut path = Vec::new();
        loop {
            match node {
                NodeRef::Leaf(i) => return (i, path),
                NodeRef::Internal(i) => {
                    let internal = &self.nodes[i as usize];
                    let slot = internal.ordering.child_of(p, &internal.split);
                    path.push((i, slot));
                    node = internal.children[slot];
                }
            }
        }
    }

    /// Inserts a point, bootstrapping a single all-covering leaf when the
    /// index was built over an empty dataset.
    pub(crate) fn insert_point(&mut self, p: Point) -> Result<(), IndexError> {
        if !p.is_finite() {
            return Err(IndexError::InvalidInput(format!(
                "cannot index non-finite point {p}"
            )));
        }
        if self.leaves.is_empty() {
            // An index built over an empty dataset starts with no leaves;
            // bootstrap a single all-covering leaf.
            let page = self.store.allocate(Vec::new());
            self.leaves
                .push(Leaf::new(Rect::UNIT, Rect::EMPTY, page, 0));
            self.root = NodeRef::Leaf(0);
            if self.config.skipping {
                self.rebuild_lookahead();
            }
        }
        let (leaf_index, path) = self.locate_leaf_with_path(&p);
        for (node, _) in &path {
            self.nodes[*node as usize].count += 1;
        }
        let leaf = &mut self.leaves[leaf_index as usize];
        if !leaf.region.contains(&p) {
            // The point falls outside the leaf's cell region (it lies outside
            // the original data space), so the region-based skip geometry no
            // longer bounds the leaf's contents.
            self.lookahead_stale = true;
        }
        self.store.append(leaf.page, p);
        leaf.count += 1;
        leaf.bbox.expand(&p);
        self.len += 1;
        self.data_space.expand(&p);

        if self
            .store
            .is_overflowing(self.leaves[leaf_index as usize].page)
        {
            let parent = path.last().copied();
            self.split_leaf(leaf_index, parent);
        }
        Ok(())
    }

    /// Deletes the first indexed point equal to `p`, returning whether a
    /// point was removed.
    pub(crate) fn delete_point(&mut self, p: &Point) -> Result<bool, IndexError> {
        if self.leaves.is_empty() {
            return Ok(false);
        }
        let (leaf_index, path) = self.locate_leaf_with_path(p);
        let leaf = &mut self.leaves[leaf_index as usize];
        // A miss must not copy a page a snapshot still shares:
        // `PageStore::remove` unshares only on a hit.
        if !leaf.bbox.contains(p) || !self.store.remove(leaf.page, p) {
            return Ok(false);
        }
        leaf.count -= 1;
        leaf.bbox = self.store.page(leaf.page).bbox();
        for (node, _) in &path {
            self.nodes[*node as usize].count -= 1;
        }
        self.len -= 1;
        Ok(true)
    }

    /// Splits an overflowing leaf along its data medians into four children
    /// ("We split any overflowing pages of WaZI along the data medians"),
    /// replacing the leaf with a new internal node.
    ///
    /// New leaves inherit conservative look-ahead pointers (pointing to their
    /// successor), which preserves the skipping safety invariant; call
    /// [`ZIndex::rebuild_lookahead`] to restore maximally skipping pointers
    /// after a batch of inserts.
    fn split_leaf(&mut self, leaf_index: u32, parent: Option<(u32, usize)>) {
        let leaf_pos = leaf_index as usize;
        let region = self.leaves[leaf_pos].region;
        let page_id = self.leaves[leaf_pos].page;
        let points = self.store.page(page_id).to_vec();
        let split = crate::build::median_split(&points, &mut Vec::new());
        let ordering = CellOrdering::Abcd;

        // A split that cannot separate the points (all duplicates) is skipped:
        // the leaf simply stays oversized.
        let first_quadrant = Quadrant::of(&points[0], &split);
        if points
            .iter()
            .all(|p| Quadrant::of(p, &split) == first_quadrant)
        {
            return;
        }

        let page_ids = self
            .store
            .split_page(page_id, 4, |p| ordering.child_of(p, &split));

        // Build the four replacement leaves in curve order.
        let mut new_leaves = Vec::with_capacity(4);
        for (position, quadrant) in ordering.curve().into_iter().enumerate() {
            let child_region = quadrant.region(&region, &split);
            let page = page_ids[position];
            let stored = self.store.page(page);
            new_leaves.push(Leaf::new(child_region, stored.bbox(), page, stored.len()));
        }

        // Splice the new leaves into the leaf list: the first replaces the
        // original position, the other three follow it.
        let total_count: usize = new_leaves.iter().map(|l| l.count).sum();
        self.leaves[leaf_pos] = new_leaves[0].clone();
        self.leaves
            .splice(leaf_pos + 1..leaf_pos + 1, new_leaves[1..].iter().cloned());

        // Leaf indices after the split position shifted by three: fix child
        // references of internal nodes and existing look-ahead pointers.
        for node in &mut self.nodes {
            for child in &mut node.children {
                if let NodeRef::Leaf(i) = child {
                    if *i > leaf_index {
                        *i += 3;
                    }
                }
            }
        }
        for leaf in &mut self.leaves {
            if let Some(lookahead) = &mut leaf.lookahead {
                for criterion in crate::node::SkipCriterion::ALL {
                    let target = lookahead.get(criterion);
                    if target != LOOKAHEAD_END && target > leaf_index {
                        lookahead.set(criterion, target + 3);
                    }
                }
            }
        }
        // Conservative pointers for the four new leaves: their plain
        // successor (always safe).
        if self.config.skipping {
            for offset in 0..4u32 {
                let idx = leaf_index + offset;
                let next = idx + 1;
                let next = if (next as usize) < self.leaves.len() {
                    next
                } else {
                    LOOKAHEAD_END
                };
                let mut lookahead = Lookahead::default();
                for criterion in crate::node::SkipCriterion::ALL {
                    lookahead.set(criterion, next);
                }
                self.leaves[idx as usize].lookahead = Some(lookahead);
            }
        }

        // Replace the leaf with a new internal node in the tree.
        let node_index = self.nodes.len() as u32;
        self.nodes.push(InternalNode {
            region,
            split,
            ordering,
            children: [
                NodeRef::Leaf(leaf_index),
                NodeRef::Leaf(leaf_index + 1),
                NodeRef::Leaf(leaf_index + 2),
                NodeRef::Leaf(leaf_index + 3),
            ],
            count: total_count,
        });
        match parent {
            Some((parent_index, slot)) => {
                self.nodes[parent_index as usize].children[slot] = NodeRef::Internal(node_index);
            }
            None => {
                self.root = NodeRef::Internal(node_index);
            }
        }
    }

    /// Rebuilds the look-ahead pointers from scratch (Algorithm 4), restoring
    /// maximal skipping after updates degraded the pointers of split leaves.
    pub fn rebuild_lookahead(&mut self) {
        if self.config.skipping {
            build_lookahead(&mut self.leaves);
            self.lookahead_stale = false;
        }
    }
}
