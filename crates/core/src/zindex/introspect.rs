//! Introspection: accessors, invariant checkers and workload-cost
//! measurement used by tests, examples and the benchmark harness.

use super::ZIndex;
use crate::build::BuildReport;
use crate::config::ZIndexConfig;
use crate::index::SpatialIndex;
use crate::lookahead;
use crate::node::{InternalNode, Leaf, NodeRef};
use wazi_geom::{CellOrdering, Rect};
use wazi_storage::ExecStats;

impl ZIndex {
    /// The construction configuration.
    pub fn config(&self) -> &ZIndexConfig {
        &self.config
    }

    /// Construction statistics (build time, candidates evaluated, chosen
    /// orderings).
    pub fn build_report(&self) -> &BuildReport {
        &self.build_report
    }

    /// Number of leaf nodes (the length of the `LeafList`).
    pub fn leaf_count(&self) -> usize {
        self.leaves.len()
    }

    /// Number of internal nodes.
    pub fn internal_count(&self) -> usize {
        self.nodes.len()
    }

    /// Height of the tree (a single leaf has height 1).
    pub fn height(&self) -> usize {
        fn depth_of(index: &ZIndex, node: NodeRef) -> usize {
            match node {
                NodeRef::Leaf(_) => 1,
                NodeRef::Internal(i) => {
                    1 + index.nodes[i as usize]
                        .children
                        .iter()
                        .map(|c| depth_of(index, *c))
                        .max()
                        .unwrap_or(0)
                }
            }
        }
        depth_of(self, self.root)
    }

    /// Bounding box of the data the index was built over (grown by inserts).
    pub fn data_space(&self) -> Rect {
        self.data_space
    }

    /// Whether look-ahead skipping is enabled and currently active for this
    /// instance (skipping is temporarily suspended when an update outside
    /// the original data space made the pointers potentially unsafe; see
    /// [`ZIndex::rebuild_lookahead`]).
    pub fn skipping_enabled(&self) -> bool {
        self.config.skipping && !self.lookahead_stale
    }

    /// Fraction of internal cells using the alternative `acbd` ordering.
    pub fn acbd_fraction(&self) -> f64 {
        if self.nodes.is_empty() {
            return 0.0;
        }
        self.nodes
            .iter()
            .filter(|n| n.ordering == CellOrdering::Acbd)
            .count() as f64
            / self.nodes.len() as f64
    }

    /// Verifies the safety invariant of the look-ahead pointers (used by
    /// integration and property tests). Returns an error when skipping is
    /// enabled and a pointer could skip a potentially relevant leaf.
    pub fn verify_lookahead_invariant(&self) -> Result<(), String> {
        if !self.skipping_enabled() {
            return Ok(());
        }
        lookahead::verify_invariant(&self.leaves)
    }

    /// Verifies the structural invariants of the index: leaf/page counts
    /// agree, every point is stored in the leaf whose cell contains it, and
    /// the leaf list is dominance-monotone. Intended for tests.
    pub fn verify_structure(&self) -> Result<(), String> {
        let mut total = 0usize;
        for (i, leaf) in self.leaves.iter().enumerate() {
            let page = self.store.page(leaf.page);
            if page.len() != leaf.count {
                return Err(format!(
                    "leaf {i}: count {} disagrees with page length {}",
                    leaf.count,
                    page.len()
                ));
            }
            for p in page.iter() {
                if !leaf.bbox.contains(&p) {
                    return Err(format!("leaf {i}: point {p} outside its bounding box"));
                }
            }
            total += page.len();
        }
        if total != self.len {
            return Err(format!(
                "stored points {total} disagree with index length {}",
                self.len
            ));
        }
        // Every internal node's split point must lie inside its cell region;
        // routing (Algorithm 1) relies on the split partitioning the cell.
        for (i, node) in self.nodes.iter().enumerate() {
            if !node.region.contains(&node.split) {
                return Err(format!(
                    "internal node {i}: split point {} outside its region",
                    node.split
                ));
            }
        }
        // Dominance monotonicity across leaves (Section 3): a point stored in
        // a later leaf must never be dominated by a point stored in an
        // earlier leaf.
        for i in 0..self.leaves.len() {
            let earlier = self.store.page(self.leaves[i].page);
            for (j, later_leaf) in self.leaves.iter().enumerate().skip(i + 1) {
                let later = self.store.page(later_leaf.page);
                for a in earlier.iter() {
                    for b in later.iter() {
                        if b.dominated_by(&a) {
                            return Err(format!(
                                "monotonicity violated: point {b} in leaf {j} is dominated by point {a} in earlier leaf {i}"
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Retrieval cost of a workload on this index measured in points
    /// compared (the quantity the cost model of Section 4 predicts).
    /// Executes through the non-materializing counting path, so the
    /// measurement charges exactly the work the cost model charges — no
    /// allocation noise.
    pub fn measured_workload_cost(&self, queries: &[Rect]) -> u64 {
        let mut stats = ExecStats::default();
        for q in queries {
            self.range_count(q, &mut stats);
        }
        stats.points_scanned
    }

    /// FNV-1a-64 digest of everything construction decides: every internal
    /// node's `(split, ordering, count)` in arena order, every leaf's
    /// `(region, bbox, count)` in curve order and every leaf page's points
    /// in stored order (floats by bit pattern). Two indexes with equal
    /// digests answer every query with the same points in the same order
    /// at the same counters; `tests/wazi_invariants.rs` pins it so a
    /// construction change that means to keep the tree can prove it did.
    pub fn structure_digest(&self) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut word = |w: u64| {
            for byte in w.to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for node in &self.nodes {
            word(node.split.x.to_bits());
            word(node.split.y.to_bits());
            word(node.ordering as u64);
            word(node.count as u64);
        }
        for leaf in &self.leaves {
            for corner in [leaf.region.lo, leaf.region.hi, leaf.bbox.lo, leaf.bbox.hi] {
                word(corner.x.to_bits());
                word(corner.y.to_bits());
            }
            word(leaf.count as u64);
            for p in self.store.page(leaf.page).iter() {
                word(p.x.to_bits());
                word(p.y.to_bits());
            }
        }
        hash
    }

    /// Approximate in-memory size of the index structure in bytes.
    pub(crate) fn structure_size_bytes(&self) -> usize {
        // Table 5 reports the size of the index structure (tree nodes, leaf
        // metadata, look-ahead pointers); the clustered data pages themselves
        // are common to every index and are not counted.
        std::mem::size_of::<Self>()
            + self.nodes.len() * std::mem::size_of::<InternalNode>()
            + self.leaves.len() * std::mem::size_of::<Leaf>()
    }
}
