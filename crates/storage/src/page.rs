//! Data pages: the unit of storage scanned during range-query filtering.

use crate::stats::ExecStats;
use wazi_geom::{Point, Rect};

/// Identifier of a page inside a [`crate::PageStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u32);

impl PageId {
    /// Index into the owning store's page vector.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for PageId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "page#{}", self.0)
    }
}

/// Points per block of the page layout.
const LANES: usize = 8;

/// One block of the page layout: eight points stored lane-wise as
/// `x₀…x₇ y₀…y₇`, so a filter over a block is two fixed-width runs of
/// comparisons the compiler can vectorise.
type Block = [f64; 2 * LANES];

/// A block holding no point. Padding lanes are NaN: every ordered
/// comparison and every equality against NaN is false, so the scan loops
/// below can run over whole blocks without ever matching a lane that holds
/// no point.
const PADDING: Block = [f64::NAN; 2 * LANES];

/// A clustered data page holding at most the leaf capacity `L` points
/// (Section 3: "leaf nodes contain ... a pointer to a page with at most L
/// elements"; points within a page are stored in arrival order, i.e. no
/// intra-page ordering is assumed).
///
/// Layout: one allocation of eight-point blocks in structure-of-arrays
/// form, the tail of the last block padded with NaN. Point `i` lives in
/// lane `i % 8` of block `i / 8`, so arrival order is kept.
///
/// Every scan primitive has a whole-page fast path: when the query
/// contains the page's tight bounding box no point is compared. The
/// counters do not see the difference — `points_scanned` is the charge of
/// the paper's Eq. 5, every point of a scanned page, compared or not.
#[derive(Debug, Clone)]
pub struct Page {
    id: PageId,
    len: usize,
    blocks: Vec<Block>,
    bbox: Rect,
    /// Whether a stored coordinate is NaN. `bbox` leaves such a point out
    /// (`f64::min` / `f64::max` skip NaN), so the page must not be accepted
    /// whole on its box. The indexes reject non-finite points; decoded
    /// bytes can hold any.
    has_nan: bool,
}

/// `Rect::contains` on raw coordinates with the bounds already copied out
/// of the query, and `&` for `&&`: no branch, and false for a NaN lane.
#[inline(always)]
fn inside(x: f64, y: f64, lo: Point, hi: Point) -> bool {
    (x >= lo.x) & (x <= hi.x) & (y >= lo.y) & (y <= hi.y)
}

/// The lanes of a block that passed a test, one bit per lane (bit `l` is
/// lane `l`), built without a branch; zero when no lane hit. Iterating
/// yields the hit lanes in lane order, i.e. arrival order.
struct Hits(u32);

impl Hits {
    #[inline(always)]
    fn of(block: &Block, test: impl Fn(f64, f64) -> bool) -> Self {
        let (xs, ys) = block.split_at(LANES);
        let mut word = 0u32;
        for lane in 0..LANES {
            word |= u32::from(test(xs[lane], ys[lane])) << lane;
        }
        Hits(word)
    }
}

impl Iterator for Hits {
    type Item = usize;

    #[inline(always)]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let lane = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(lane)
    }
}

/// The point in `lane` of `block`.
#[inline(always)]
fn lane_point(block: &Block, lane: usize) -> Point {
    Point::new(block[lane], block[LANES + lane])
}

/// The eight lanes of `block` as points (padding lanes included).
#[inline(always)]
fn block_points(block: &Block) -> [Point; LANES] {
    std::array::from_fn(|lane| lane_point(block, lane))
}

impl Page {
    /// Creates a page from its identifier and points.
    pub fn new(id: PageId, points: Vec<Point>) -> Self {
        Self::from_slice(id, &points)
    }

    /// [`Page::new`] from borrowed points: the block layout copies them
    /// either way, so a caller holding a slice need not build a vector (an
    /// index build that allocates one throw-away vector per page leaves the
    /// heap fragmented between the pages).
    pub fn from_slice(id: PageId, points: &[Point]) -> Self {
        let mut page = Self {
            id,
            len: 0,
            blocks: Vec::with_capacity(points.len().div_ceil(LANES)),
            bbox: Rect::EMPTY,
            has_nan: false,
        };
        for p in points {
            page.push(*p);
        }
        page
    }

    /// The page identifier.
    #[inline]
    pub fn id(&self) -> PageId {
        self.id
    }

    /// Number of points stored in the page.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the page holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The stored points by value, in arrival order (the block layout holds
    /// no `Point` to borrow).
    pub fn iter(&self) -> impl Iterator<Item = Point> + '_ {
        self.blocks.iter().flat_map(block_points).take(self.len)
    }

    /// The stored points, in arrival order, as a fresh vector.
    pub fn to_vec(&self) -> Vec<Point> {
        let mut points = Vec::new();
        self.extend_into(&mut points);
        points
    }

    /// Appends every stored point to `out`, block by block.
    #[inline]
    fn extend_into(&self, out: &mut Vec<Point>) {
        out.reserve(self.len);
        let (full, tail) = self.blocks.split_at(self.len / LANES);
        for block in full {
            out.extend_from_slice(&block_points(block));
        }
        if let Some(block) = tail.first() {
            out.extend_from_slice(&block_points(block)[..self.len % LANES]);
        }
    }

    /// Tight bounding box of the stored points ([`Rect::EMPTY`] when empty).
    #[inline]
    pub fn bbox(&self) -> Rect {
        self.bbox
    }

    /// Appends a point, updating the bounding box. Returns the new length.
    pub fn push(&mut self, p: Point) -> usize {
        if self.len.is_multiple_of(LANES) {
            self.blocks.push(PADDING);
        }
        self.set(self.len, p);
        self.len += 1;
        self.bbox.expand(&p);
        self.has_nan |= p.x.is_nan() || p.y.is_nan();
        self.len
    }

    /// Removes the first occurrence of a point equal to `p`, moving the last
    /// point into its place. Returns whether a point was removed. The
    /// bounding box stays tight: it is recomputed when — and only when —
    /// the removed point lay on its boundary.
    pub fn remove(&mut self, p: &Point) -> bool {
        let position = self.position(p);
        if let Some(pos) = position {
            self.swap_remove(pos);
        }
        position.is_some()
    }

    /// Removes the point at arrival position `pos` (which must be below
    /// `len()`), moving the last point into its place.
    pub(crate) fn swap_remove(&mut self, pos: usize) {
        let removed = self.get(pos);
        let last = self.len - 1;
        self.set(pos, self.get(last));
        self.set(last, Point::new(f64::NAN, f64::NAN));
        self.len = last;
        if last.is_multiple_of(LANES) {
            self.blocks.pop();
        }
        let b = self.bbox;
        if removed.x == b.lo.x || removed.x == b.hi.x || removed.y == b.lo.y || removed.y == b.hi.y
        {
            self.bbox = self.iter().fold(Rect::EMPTY, |mut acc, q| {
                acc.expand(&q);
                acc
            });
        }
    }

    /// The point in slot `i` (a lane of an existing block).
    #[inline]
    fn get(&self, i: usize) -> Point {
        lane_point(&self.blocks[i / LANES], i % LANES)
    }

    /// Overwrites slot `i` (a lane of an existing block).
    #[inline]
    fn set(&mut self, i: usize, p: Point) {
        let block = &mut self.blocks[i / LANES];
        block[i % LANES] = p.x;
        block[LANES + i % LANES] = p.y;
    }

    /// Arrival position of the first stored point equal to `p`.
    #[inline]
    pub(crate) fn position(&self, p: &Point) -> Option<usize> {
        self.blocks.iter().enumerate().find_map(|(b, block)| {
            // The x lanes alone settle most blocks, and they are the first
            // half of the block: a block without an equal x is read half.
            let x_hit = block[..LANES]
                .iter()
                .fold(false, |any, &x| any | (x == p.x));
            if !x_hit {
                return None;
            }
            let lane = Hits::of(block, |x, y| (x == p.x) & (y == p.y)).next()?;
            Some(b * LANES + lane)
        })
    }

    /// Whether `query` takes every stored point without looking at one:
    /// it contains the tight bounding box (never true of an empty page).
    #[inline]
    fn accepted_whole(&self, query: &Rect) -> bool {
        query.contains_rect(&self.bbox) && !self.has_nan
    }

    /// Invokes `visit` for every stored point inside `query`, in arrival
    /// order: the filtered branch of the collecting and streaming scans.
    #[inline(always)]
    fn for_each_hit(&self, query: &Rect, mut visit: impl FnMut(Point)) {
        let (lo, hi) = (query.lo, query.hi);
        for block in &self.blocks {
            for lane in Hits::of(block, |x, y| inside(x, y, lo, hi)) {
                visit(lane_point(block, lane));
            }
        }
    }

    /// Visitor-based scanning-phase filter: invokes `visit` for every stored
    /// point falling inside `query`, in arrival order, recording one page
    /// scan plus one point charge per stored point in `stats`. Nothing is
    /// materialized here, so callers choose between counting, collecting or
    /// streaming.
    #[inline]
    pub fn for_each_in(&self, query: &Rect, stats: &mut ExecStats, mut visit: impl FnMut(&Point)) {
        stats.pages_scanned += 1;
        stats.points_scanned += self.len as u64;
        if self.accepted_whole(query) {
            self.iter().for_each(|p| visit(&p));
        } else {
            self.for_each_hit(query, |p| visit(&p));
        }
    }

    /// Counting scan: returns the number of stored points inside `query`
    /// without materializing them, charging the same counters as
    /// [`Page::for_each_in`].
    #[inline]
    pub fn count_in(&self, query: &Rect, stats: &mut ExecStats) -> u64 {
        stats.pages_scanned += 1;
        self.count_in_shared(query, stats)
    }

    /// [`Page::count_in`] without the page-visit charge: the fused range
    /// kernels fetch a page once for every request that needs it (charged
    /// to the batch's shared stats) while each request still pays its own
    /// point charges — through this one definition, so the fused and
    /// sequential paths cannot drift apart.
    #[inline]
    pub fn count_in_shared(&self, query: &Rect, stats: &mut ExecStats) -> u64 {
        stats.points_scanned += self.len as u64;
        if self.accepted_whole(query) {
            return self.len as u64;
        }
        let (lo, hi) = (query.lo, query.hi);
        let mut count = 0u64;
        for block in &self.blocks {
            let (xs, ys) = block.split_at(LANES);
            for lane in 0..LANES {
                count += u64::from(inside(xs[lane], ys[lane], lo, hi));
            }
        }
        count
    }

    /// Materializing filter: appends the points falling inside `query` to
    /// `out` in arrival order, charging the same counters as
    /// [`Page::for_each_in`].
    #[inline]
    pub fn filter_into(&self, query: &Rect, out: &mut Vec<Point>, stats: &mut ExecStats) {
        stats.pages_scanned += 1;
        self.filter_into_shared(query, out, stats);
    }

    /// [`Page::filter_into`] without the page-visit charge (see
    /// [`Page::count_in_shared`]).
    #[inline]
    pub fn filter_into_shared(&self, query: &Rect, out: &mut Vec<Point>, stats: &mut ExecStats) {
        stats.points_scanned += self.len as u64;
        if self.accepted_whole(query) {
            self.extend_into(out);
        } else {
            self.for_each_hit(query, |p| out.push(p));
        }
    }

    /// Point-query probe: returns `true` when a point equal to `p` is stored
    /// in the page, recording the comparisons performed.
    pub fn probe(&self, p: &Point, stats: &mut ExecStats) -> bool {
        stats.pages_scanned += 1;
        self.probe_shared(p, stats)
    }

    /// [`Page::probe`] without the page-visit charge: the fused point-batch
    /// kernels fetch a page once per probe *group* (charged to the batch's
    /// shared stats) while every probe still pays its own comparisons —
    /// this is the one definition of those comparison charges, so the
    /// fused and sequential paths cannot drift apart. A hit at arrival
    /// position `i` charges `i + 1` points, a miss charges `len()`.
    pub fn probe_shared(&self, p: &Point, stats: &mut ExecStats) -> bool {
        let position = self.position(p);
        stats.points_scanned += position.map_or(self.len, |i| i + 1) as u64;
        position.is_some()
    }

    /// Approximate in-memory footprint of the page in bytes.
    pub fn size_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.blocks.capacity() * std::mem::size_of::<Block>()
    }

    /// Serialises the page to a compact binary representation
    /// (`id, len, [x, y] * len, checksum`, all little-endian), the on-disk
    /// page format of the simulated clustered storage. The trailing 8 bytes
    /// are an FNV-1a-64 checksum over everything before them, so torn or
    /// corrupted pages are detected at decode time rather than silently
    /// reinterpreted.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(16 + 16 * self.len);
        buf.extend_from_slice(&self.id.0.to_le_bytes());
        buf.extend_from_slice(&(self.len as u32).to_le_bytes());
        for p in self.iter() {
            buf.extend_from_slice(&p.x.to_le_bytes());
            buf.extend_from_slice(&p.y.to_le_bytes());
        }
        let checksum = fnv1a64(&buf);
        buf.extend_from_slice(&checksum.to_le_bytes());
        buf
    }

    /// Decodes a page previously produced by [`Page::to_bytes`].
    ///
    /// Returns `None` when the buffer is truncated, extended, bit-flipped or
    /// otherwise malformed: the length must be exactly `8 + 16·len + 8` and
    /// the trailing checksum must match. Never panics.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let header: [u8; 4] = bytes.get(0..4)?.try_into().ok()?;
        let id = PageId(u32::from_le_bytes(header));
        let len_bytes: [u8; 4] = bytes.get(4..8)?.try_into().ok()?;
        let len = u32::from_le_bytes(len_bytes) as usize;
        let expected = 8usize.checked_add(len.checked_mul(16)?)?.checked_add(8)?;
        if bytes.len() != expected {
            return None;
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        let stored: [u8; 8] = tail.try_into().ok()?;
        if fnv1a64(body) != u64::from_le_bytes(stored) {
            return None;
        }
        let mut points = Vec::with_capacity(len);
        for chunk in body[8..].chunks_exact(16) {
            let x = f64::from_le_bytes(chunk[0..8].try_into().ok()?);
            let y = f64::from_le_bytes(chunk[8..16].try_into().ok()?);
            points.push(Point::new(x, y));
        }
        Some(Self::new(id, points))
    }
}

/// FNV-1a 64-bit checksum guarding the binary page format (the same
/// integrity primitive the wire protocol uses for frames).
fn fnv1a64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_page() -> Page {
        Page::new(
            PageId(3),
            vec![
                Point::new(0.1, 0.1),
                Point::new(0.5, 0.6),
                Point::new(0.9, 0.2),
            ],
        )
    }

    #[test]
    fn bbox_tracks_contents() {
        let mut page = sample_page();
        assert_eq!(page.bbox(), Rect::from_coords(0.1, 0.1, 0.9, 0.6));
        page.push(Point::new(0.0, 1.0));
        assert_eq!(page.bbox(), Rect::from_coords(0.0, 0.1, 0.9, 1.0));
        assert!(page.remove(&Point::new(0.0, 1.0)));
        assert_eq!(page.bbox(), Rect::from_coords(0.1, 0.1, 0.9, 0.6));
        assert!(!page.remove(&Point::new(7.0, 7.0)));
    }

    #[test]
    fn filter_counts_all_points_and_returns_matches() {
        let page = sample_page();
        let mut stats = ExecStats::default();
        let mut out = Vec::new();
        page.filter_into(&Rect::from_coords(0.0, 0.0, 0.6, 0.7), &mut out, &mut stats);
        assert_eq!(out, vec![Point::new(0.1, 0.1), Point::new(0.5, 0.6)]);
        assert_eq!(stats.pages_scanned, 1);
        assert_eq!(stats.points_scanned, 3);
    }

    #[test]
    fn count_in_agrees_with_filter_and_charges_the_same_work() {
        let page = sample_page();
        let query = Rect::from_coords(0.0, 0.0, 0.6, 0.7);
        let mut filter_stats = ExecStats::default();
        let mut out = Vec::new();
        page.filter_into(&query, &mut out, &mut filter_stats);
        let mut count_stats = ExecStats::default();
        let count = page.count_in(&query, &mut count_stats);
        assert_eq!(count, out.len() as u64);
        assert_eq!(filter_stats, count_stats);
    }

    #[test]
    fn for_each_visits_exactly_the_matches() {
        let page = sample_page();
        let mut stats = ExecStats::default();
        let mut seen = Vec::new();
        page.for_each_in(&Rect::from_coords(0.4, 0.0, 1.0, 1.0), &mut stats, |p| {
            seen.push(*p)
        });
        assert_eq!(seen, vec![Point::new(0.5, 0.6), Point::new(0.9, 0.2)]);
        assert_eq!(stats.points_scanned, 3);
    }

    #[test]
    fn probe_finds_existing_points_only() {
        let page = sample_page();
        let mut stats = ExecStats::default();
        assert!(page.probe(&Point::new(0.5, 0.6), &mut stats));
        assert!(!page.probe(&Point::new(0.5, 0.61), &mut stats));
        assert_eq!(stats.pages_scanned, 2);
        assert!(stats.points_scanned >= 3);
    }

    #[test]
    fn binary_round_trip() {
        let page = sample_page();
        let bytes = page.to_bytes();
        let decoded = Page::from_bytes(&bytes).expect("decoding must succeed");
        assert_eq!(decoded.id(), page.id());
        assert_eq!(decoded.to_vec(), page.to_vec());
        assert_eq!(decoded.bbox(), page.bbox());
    }

    #[test]
    fn truncated_bytes_are_rejected() {
        let page = sample_page();
        let bytes = page.to_bytes();
        for cut in 0..bytes.len() {
            assert!(Page::from_bytes(&bytes[..cut]).is_none());
        }
        assert!(Page::from_bytes(&[1, 2, 3]).is_none());
    }

    #[test]
    fn extended_bytes_are_rejected() {
        let page = sample_page();
        let mut bytes = page.to_bytes();
        bytes.push(0);
        assert!(Page::from_bytes(&bytes).is_none());
    }

    #[test]
    fn bit_flips_are_rejected() {
        let page = sample_page();
        let bytes = page.to_bytes();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[i] ^= 1 << bit;
                assert!(
                    Page::from_bytes(&corrupt).is_none(),
                    "flip of byte {i} bit {bit} was not detected"
                );
            }
        }
    }

    #[test]
    fn empty_page_round_trips() {
        let page = Page::new(PageId(0), Vec::new());
        let decoded = Page::from_bytes(&page.to_bytes()).expect("empty page decodes");
        assert!(decoded.is_empty());
        assert_eq!(decoded.id(), PageId(0));
    }

    #[test]
    fn size_accounts_for_points() {
        let page = sample_page();
        assert!(page.size_bytes() >= 3 * std::mem::size_of::<Point>());
    }
}
