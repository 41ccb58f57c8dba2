//! Clustered page store shared by the indexes of the workspace.
//!
//! The paper assumes clustered indexes: "data points corresponding to
//! consecutive leaf nodes are stored in consecutive pages". The store keeps
//! pages in a vector in leaf order; each index records the identifier of the
//! page backing each leaf. New pages created by leaf splits are appended at
//! the end (simulating out-of-place page allocation after updates).
//!
//! ## Page-level copy-on-write
//!
//! Pages are held behind [`Arc`], so cloning a `PageStore` is a *fork*: the
//! clone shares every page payload with the original and only copies the
//! page table (one pointer per page). Mutating a page through the store
//! ([`PageStore::page_mut`], [`PageStore::append`], a [`PageStore::remove`]
//! that hits) copies exactly that page first if it is shared
//! (`Arc::make_mut`), and [`PageStore::split_page`] installs fresh pages
//! beside the one it reads, leaving every other fork's view untouched. This is the storage seam the epoch
//! snapshot layer (`wazi_core`'s `VersionedIndex`) builds on: a reader
//! holding a forked store can never observe a torn page, because a writer
//! never mutates a page some fork still references — it mutates a private
//! copy.

use crate::page::{Page, PageId};
use std::sync::Arc;
use wazi_geom::Point;

/// A collection of clustered data pages with a fixed leaf capacity.
///
/// `Clone` forks the store in O(pages): page payloads are shared and copied
/// lazily on first mutation (see the module docs).
#[derive(Debug, Clone)]
pub struct PageStore {
    pages: Vec<Arc<Page>>,
    leaf_capacity: usize,
}

impl PageStore {
    /// Creates an empty store with the given leaf capacity `L`.
    pub fn new(leaf_capacity: usize) -> Self {
        assert!(leaf_capacity > 0, "leaf capacity must be positive");
        Self {
            pages: Vec::new(),
            leaf_capacity,
        }
    }

    /// The leaf capacity `L` (the paper's default is 256).
    #[inline]
    pub fn leaf_capacity(&self) -> usize {
        self.leaf_capacity
    }

    /// Number of pages allocated.
    #[inline]
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Total number of points across pages.
    pub fn total_points(&self) -> usize {
        self.pages.iter().map(|p| p.len()).sum()
    }

    /// Allocates a new page holding `points` and returns its identifier.
    /// Pages allocated consecutively model consecutive placement on storage.
    pub fn allocate(&mut self, points: Vec<Point>) -> PageId {
        self.allocate_slice(&points)
    }

    /// [`PageStore::allocate`] from borrowed points (see
    /// [`Page::from_slice`]).
    pub fn allocate_slice(&mut self, points: &[Point]) -> PageId {
        let id = PageId(self.pages.len() as u32);
        self.pages.push(Arc::new(Page::from_slice(id, points)));
        id
    }

    /// Read-only access to a page.
    #[inline]
    pub fn page(&self, id: PageId) -> &Page {
        self.pages[id.index()].as_ref()
    }

    /// Mutable access to a page. If the page payload is shared with a forked
    /// store (a snapshot), it is copied first so the fork's view is
    /// unaffected.
    #[inline]
    pub fn page_mut(&mut self, id: PageId) -> &mut Page {
        Arc::make_mut(&mut self.pages[id.index()])
    }

    /// Iterator over all pages in allocation (leaf) order.
    pub fn pages(&self) -> impl Iterator<Item = &Page> {
        self.pages.iter().map(|p| p.as_ref())
    }

    /// Whether this store and `other` share the physical payload of page
    /// `id` (i.e. neither fork has copied it since they diverged). Used by
    /// tests and the snapshot layer to verify copy-on-write behaviour.
    pub fn shares_page_with(&self, other: &PageStore, id: PageId) -> bool {
        match (self.pages.get(id.index()), other.pages.get(id.index())) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }

    /// Appends a point to a page, returning the page's new length. Callers
    /// are responsible for splitting when the length exceeds the capacity.
    pub fn append(&mut self, id: PageId, p: Point) -> usize {
        Arc::make_mut(&mut self.pages[id.index()]).push(p)
    }

    /// Removes the first point equal to `p` from a page, returning whether
    /// one was removed. The page is looked at before it is touched: only a
    /// hit unshares a payload a fork still holds, a miss copies nothing.
    pub fn remove(&mut self, id: PageId, p: &Point) -> bool {
        let page = &mut self.pages[id.index()];
        let position = page.position(p);
        if let Some(pos) = position {
            Arc::make_mut(page).swap_remove(pos);
        }
        position.is_some()
    }

    /// Returns `true` when a page is over capacity and must be split.
    pub fn is_overflowing(&self, id: PageId) -> bool {
        self.pages[id.index()].len() > self.leaf_capacity
    }

    /// Approximate in-memory footprint of the store in bytes.
    pub fn size_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.pages.iter().map(|p| p.size_bytes()).sum::<usize>()
    }

    /// Splits the contents of `id` into `parts` new pages according to the
    /// provided partition function: point `p` goes to part `partition(p)`.
    /// The original identifier keeps part `0`; the remaining parts are
    /// appended as new pages. Returns the identifiers of all parts in order
    /// (including the reused original one). Empty parts still receive a
    /// page so the caller can map child leaves one-to-one.
    pub fn split_page(
        &mut self,
        id: PageId,
        parts: usize,
        mut partition: impl FnMut(&Point) -> usize,
    ) -> Vec<PageId> {
        assert!(parts >= 2, "splitting requires at least two parts");
        let mut buckets: Vec<Vec<Point>> = vec![Vec::new(); parts];
        for p in self.pages[id.index()].iter() {
            buckets[partition(&p).min(parts - 1)].push(p);
        }
        let mut ids = Vec::with_capacity(parts);
        let mut buckets = buckets.into_iter();
        // The original slot receives a fresh page holding the first bucket:
        // the old payload is only read, so a fork still sharing it keeps it
        // and nothing is copied just to be emptied.
        let first = buckets.next().expect("at least two parts requested");
        self.pages[id.index()] = Arc::new(Page::new(id, first));
        ids.push(id);
        for bucket in buckets {
            ids.push(self.allocate(bucket));
        }
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_with_grid() -> (PageStore, Vec<PageId>) {
        let mut store = PageStore::new(4);
        let mut ids = Vec::new();
        for chunk in 0..3 {
            let points: Vec<Point> = (0..4)
                .map(|i| Point::new(chunk as f64 * 0.3 + 0.01 * i as f64, 0.5))
                .collect();
            ids.push(store.allocate(points));
        }
        (store, ids)
    }

    #[test]
    fn allocation_is_sequential() {
        let (store, ids) = store_with_grid();
        assert_eq!(ids, vec![PageId(0), PageId(1), PageId(2)]);
        assert_eq!(store.page_count(), 3);
        assert_eq!(store.total_points(), 12);
        assert_eq!(store.leaf_capacity(), 4);
    }

    #[test]
    fn append_and_overflow_detection() {
        let (mut store, ids) = store_with_grid();
        assert!(!store.is_overflowing(ids[0]));
        store.append(ids[0], Point::new(0.02, 0.5));
        assert!(store.is_overflowing(ids[0]));
    }

    #[test]
    fn split_distributes_points_and_reuses_original() {
        let mut store = PageStore::new(4);
        let id = store.allocate(
            (0..8)
                .map(|i| Point::new(i as f64 / 8.0, 0.5))
                .collect::<Vec<_>>(),
        );
        let ids = store.split_page(id, 2, |p| usize::from(p.x >= 0.5));
        assert_eq!(ids.len(), 2);
        assert_eq!(ids[0], id);
        assert_eq!(store.page(ids[0]).len(), 4);
        assert_eq!(store.page(ids[1]).len(), 4);
        assert!(store.page(ids[0]).iter().all(|p| p.x < 0.5));
        assert!(store.page(ids[1]).iter().all(|p| p.x >= 0.5));
        assert_eq!(store.total_points(), 8);
    }

    #[test]
    fn split_creates_pages_for_empty_parts() {
        let mut store = PageStore::new(4);
        let id = store.allocate(vec![Point::new(0.1, 0.1); 3]);
        let ids = store.split_page(id, 4, |_| 0);
        assert_eq!(ids.len(), 4);
        assert_eq!(store.page(ids[0]).len(), 3);
        for &part in &ids[1..] {
            assert!(store.page(part).is_empty());
        }
    }

    #[test]
    fn size_reflects_contents() {
        let (store, _) = store_with_grid();
        let empty = PageStore::new(4);
        assert!(store.size_bytes() > empty.size_bytes());
    }

    #[test]
    fn clone_forks_share_pages_until_mutation() {
        let (mut store, ids) = store_with_grid();
        let fork = store.clone();
        for &id in &ids {
            assert!(store.shares_page_with(&fork, id));
        }
        store.append(ids[1], Point::new(0.35, 0.5));
        assert!(store.shares_page_with(&fork, ids[0]));
        assert!(!store.shares_page_with(&fork, ids[1]));
        assert!(store.shares_page_with(&fork, ids[2]));
        // The fork's view of the mutated page is unchanged.
        assert_eq!(fork.page(ids[1]).len(), 4);
        assert_eq!(store.page(ids[1]).len(), 5);
    }

    #[test]
    fn split_copies_only_the_split_page_in_a_fork() {
        let mut store = PageStore::new(4);
        let id = store.allocate(
            (0..8)
                .map(|i| Point::new(i as f64 / 8.0, 0.5))
                .collect::<Vec<_>>(),
        );
        let other = store.allocate(vec![Point::new(0.9, 0.9)]);
        let fork = store.clone();
        let parts = store.split_page(id, 2, |p| usize::from(p.x >= 0.5));
        assert!(!store.shares_page_with(&fork, id));
        assert!(store.shares_page_with(&fork, other));
        // The fork still sees the pre-split contents; the new page does not
        // exist in the fork at all.
        assert_eq!(fork.page(id).len(), 8);
        assert_eq!(fork.page_count(), 2);
        assert_eq!(store.page(parts[1]).len(), 4);
    }

    #[test]
    fn split_of_a_shared_page_leaves_the_forks_page_untouched() {
        let mut store = PageStore::new(4);
        let points: Vec<Point> = (0..8).map(|i| Point::new(i as f64 / 8.0, 0.5)).collect();
        let id = store.allocate(points.clone());
        let (fork, other_fork) = (store.clone(), store.clone());
        store.split_page(id, 2, |p| usize::from(p.x >= 0.5));
        // The shared payload was read, never copied or drained: the forks
        // still hold the one pre-split page between them, in arrival order.
        assert!(fork.shares_page_with(&other_fork, id));
        assert!(!store.shares_page_with(&fork, id));
        assert_eq!(fork.page(id).to_vec(), points);
        assert_eq!(store.page(id).to_vec(), points[..4]);
    }

    #[test]
    fn remove_unshares_only_on_a_hit() {
        let (mut store, ids) = store_with_grid();
        let fork = store.clone();
        assert!(!store.remove(ids[0], &Point::new(0.015, 0.5)));
        assert!(store.shares_page_with(&fork, ids[0]));
        assert!(store.remove(ids[0], &Point::new(0.01, 0.5)));
        assert!(!store.shares_page_with(&fork, ids[0]));
        assert_eq!(store.page(ids[0]).len(), 3);
        assert_eq!(fork.page(ids[0]).len(), 4);
    }

    #[test]
    fn page_mut_unshares_before_mutating() {
        let (mut store, ids) = store_with_grid();
        let fork = store.clone();
        store.page_mut(ids[0]).push(Point::new(0.05, 0.5));
        assert!(!store.shares_page_with(&fork, ids[0]));
        assert_eq!(fork.page(ids[0]).len(), 4);
        assert_eq!(store.page(ids[0]).len(), 5);
    }

    #[test]
    fn shares_page_with_out_of_range_is_false() {
        let (store, _) = store_with_grid();
        let empty = PageStore::new(4);
        assert!(!store.shares_page_with(&empty, PageId(0)));
        assert!(!store.shares_page_with(&store.clone(), PageId(99)));
    }
}
