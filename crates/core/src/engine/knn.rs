//! The fused kNN batch seam: co-located kNN plans driven through a shared
//! expanding-ring sweep over the fused range kernel.
//!
//! Every index in this workspace answers kNN by the paper's fallback
//! strategy (Section 6.3): range queries with a doubling search radius
//! until the k-th candidate provably lies inside the swept box. Executed
//! sequentially, a batch of co-located kNN plans re-scans the same hot
//! pages once per plan per ring. The batched path shares those scans:
//!
//! 1. plans are **grouped by seed-box overlap** ([`group_knn_plans`]) — two
//!    plans whose initial sweep boxes overlap (transitively) will keep
//!    overlapping as their radii double, so they are the plans with pages
//!    to share;
//! 2. each group runs a **shared expanding-ring sweep**
//!    ([`run_knn_batch`]): per ring, the sweep boxes of every still-active
//!    plan in the group execute as *one* fused range batch through the
//!    index's [`RangeBatchKernel`] ([`run_range_batch`]), so a candidate
//!    page relevant to several plans is scanned once per ring instead of
//!    once per plan;
//! 3. a plan leaves its group's sweep the moment its own doubling loop
//!    would have terminated — the per-plan ring geometry, candidate sets
//!    and termination tests replicate the sequential fallback exactly, so
//!    outputs are bit-identical to [`crate::SpatialIndex::knn`].
//!
//! # Worked example
//!
//! ```
//! use wazi_core::{run_knn_batch, SpatialIndex, ZIndex};
//! use wazi_geom::Point;
//! use wazi_storage::ExecStats;
//!
//! let points: Vec<Point> = (0..1_000)
//!     .map(|i| Point::new((i % 40) as f64 / 40.0, (i / 40) as f64 / 25.0))
//!     .collect();
//! let index = ZIndex::build_base(points);
//! let kernel = index.range_batch_kernel().expect("the Z-index fuses range batches");
//!
//! // Three co-located plans plus a trivial k = 0 plan.
//! let plans = [
//!     (Point::new(0.20, 0.20), 4),
//!     (Point::new(0.21, 0.19), 4),
//!     (Point::new(0.22, 0.22), 2),
//!     (Point::new(0.90, 0.90), 0),
//! ];
//! // One shard: every ring is a single fused scan on this thread.
//! let (response, ring_shards) = run_knn_batch(&index, kernel, &plans, 1);
//! assert_eq!(ring_shards, 1);
//! // Outputs are bit-identical to the sequential fallback, plan by plan.
//! let mut stats = ExecStats::default();
//! for ((q, k), got) in plans.iter().zip(&response.neighbors) {
//!     assert_eq!(got, &index.knn(q, *k, &mut stats));
//! }
//! ```

use crate::engine::batch::{
    run_range_batch, RangeBatchKernel, RangeBatchOutput, RangeBatchRequest,
};
use crate::index::SpatialIndex;
use wazi_geom::{Point, Rect};
use wazi_storage::ExecStats;

/// One plan's progress through the doubling-radius kNN fallback.
///
/// The state machine is shared verbatim by the sequential fallback
/// ([`crate::SpatialIndex::knn`]'s default) and the batched ring sweep, so
/// the two paths cannot drift apart: both ask for the next sweep rectangle
/// ([`KnnSweepState::sweep`]), run it (one `range_query`, or one slot of a
/// fused ring batch), and feed the candidates back
/// ([`KnnSweepState::absorb`]) until the plan resolves.
#[derive(Debug, Clone)]
pub(crate) struct KnnSweepState {
    q: Point,
    /// Requested neighbour count, clamped to the index size.
    k: usize,
    bounds: Rect,
    radius: f64,
}

impl KnnSweepState {
    /// Starts the doubling loop for one plan; `None` when the plan resolves
    /// to an empty answer without scanning (`k == 0` or an empty index).
    ///
    /// The initial radius assumes a roughly uniform density over the data
    /// bounds so the first box is expected to hold about `k` points; see
    /// the sequential fallback for the full rationale.
    pub(crate) fn new(q: Point, k: usize, index_len: usize, bounds: Rect) -> Option<Self> {
        if k == 0 || index_len == 0 {
            return None;
        }
        let k = k.min(index_len);
        let area = bounds.area();
        let radius = if area.is_finite() && area > 0.0 {
            (k as f64 * area / index_len.max(1) as f64).sqrt()
        } else {
            0.0
        }
        .max(1e-6);
        Some(Self {
            q,
            k,
            bounds,
            radius,
        })
    }

    /// The rectangle the next ring sweeps and whether it provably covers
    /// every indexed point (in which case the ring's answer is final).
    pub(crate) fn sweep(&self) -> (Rect, bool) {
        let query = Rect::from_coords(
            self.q.x - self.radius,
            self.q.y - self.radius,
            self.q.x + self.radius,
            self.q.y + self.radius,
        );
        let covers_everything = self.bounds.is_empty() || query.contains_rect(&self.bounds);
        let sweep = if covers_everything {
            self.bounds
        } else {
            query
        };
        (sweep, covers_everything)
    }

    /// Feeds one ring's candidates back into the plan. Returns the final
    /// neighbour list when the plan resolves; otherwise the radius doubles
    /// and the plan stays in its group's next ring.
    pub(crate) fn absorb(
        &mut self,
        covers_everything: bool,
        mut candidates: Vec<Point>,
    ) -> Option<Vec<Point>> {
        if covers_everything || candidates.len() >= self.k {
            let q = self.q;
            candidates.sort_by(|a, b| a.distance_squared(&q).total_cmp(&b.distance_squared(&q)));
            candidates.truncate(self.k);
            if covers_everything {
                return Some(candidates);
            }
            let kth = candidates[self.k - 1].distance(&q);
            if kth <= self.radius {
                return Some(candidates);
            }
        }
        self.radius *= 2.0;
        None
    }
}

/// The batched answer to a slice of kNN plans: parallel to the plan slice.
#[derive(Debug, Clone, PartialEq)]
pub struct KnnBatchResponse {
    /// Neighbour lists in plan order, each ordered by increasing distance —
    /// bit-identical to what [`crate::SpatialIndex::knn`] returns for the
    /// same plan.
    pub neighbors: Vec<Vec<Point>>,
    /// Work attributable to a single plan: its ring sweeps' projections,
    /// bounding-box checks, point comparisons and candidate counts, charged
    /// exactly as its own sequential doubling loop charges them.
    pub per_query: Vec<ExecStats>,
    /// Work the ring sweeps performed once on behalf of several plans:
    /// visits of candidate pages shared within a ring, plus kernel phase
    /// timings.
    pub shared: ExecStats,
}

/// Groups kNN plans whose seed sweep boxes overlap in x extent,
/// transitively: one sorted sweep over the boxes' x intervals yields the
/// connected components of the x-overlap graph in `O(n log n)` — each group
/// lists plan indices in ascending order, groups ordered by their leftmost
/// box.
///
/// Plans in one group are the ones with candidate pages to share — their
/// boxes only grow as radii double, so an initial overlap never goes away.
/// x-overlap is a *superset* of full box overlap, so a group may also hold
/// y-disjoint plans; that over-grouping only affects scheduling (a fused
/// ring batch serves disjoint requests at no extra shared work), never
/// answers. Plans in different groups start disjoint on x and are swept in
/// separate ring loops, which keeps every fused ring batch focused on one
/// hot region without an `O(n²)` pairwise overlap pass.
pub fn group_knn_plans(seed_boxes: &[Rect]) -> Vec<Vec<usize>> {
    let mut order: Vec<usize> = (0..seed_boxes.len()).collect();
    order.sort_unstable_by(|&a, &b| {
        seed_boxes[a]
            .lo
            .x
            .total_cmp(&seed_boxes[b].lo.x)
            .then_with(|| a.cmp(&b))
    });
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut reach = f64::NEG_INFINITY;
    for i in order {
        let rect = &seed_boxes[i];
        // A box starting past the running x frontier cannot overlap any
        // earlier box (they all end at or before `reach`), so a new
        // component starts.
        if rect.lo.x > reach || groups.is_empty() {
            groups.push(Vec::new());
            reach = rect.hi.x;
        } else {
            reach = reach.max(rect.hi.x);
        }
        groups
            .last_mut()
            .expect("a group was just pushed or already exists")
            .push(i);
    }
    for group in &mut groups {
        group.sort_unstable();
    }
    groups
}

/// Executes a batch of kNN plans `(q, k)` through the index's fused range
/// kernel: plans are grouped by seed-box overlap and each group runs a
/// shared expanding-ring sweep, one fused range batch of up to `shards`
/// shards per ring ([`run_range_batch`]; see the module docs). Outputs are
/// bit-identical to calling [`crate::SpatialIndex::knn`] per plan. Returns
/// the response and the largest shard count any ring was swept with (one
/// when no ring ran).
pub fn run_knn_batch(
    index: &dyn SpatialIndex,
    kernel: &dyn RangeBatchKernel,
    plans: &[(Point, usize)],
    shards: usize,
) -> (KnnBatchResponse, usize) {
    let mut shards_used = 1usize;
    let mut response = KnnBatchResponse {
        neighbors: vec![Vec::new(); plans.len()],
        per_query: vec![ExecStats::default(); plans.len()],
        shared: ExecStats::default(),
    };
    let len = index.len();
    let bounds = index.data_bounds();
    let mut states: Vec<Option<KnnSweepState>> = plans
        .iter()
        .map(|&(q, k)| KnnSweepState::new(q, k, len, bounds))
        .collect();
    // Trivial plans (k == 0, empty index) resolved to empty lists above;
    // the live ones are grouped by their seed boxes.
    let live: Vec<usize> = (0..plans.len()).filter(|&i| states[i].is_some()).collect();
    let seeds: Vec<Rect> = live
        .iter()
        .map(|&i| states[i].as_ref().expect("live plans have state").sweep().0)
        .collect();
    for group in group_knn_plans(&seeds) {
        // A singleton group has nothing to share: run its doubling loop
        // directly against the index — the same state machine, so the same
        // answer and the same per-query counters as the sequential
        // fallback — instead of paying the fused-kernel (and, with several
        // shards, shard-planning and thread-scope) machinery once per ring
        // for a single request.
        if let [lone] = group.as_slice() {
            let i = live[*lone];
            let state = states[i].as_mut().expect("live plans have state");
            let stats = &mut response.per_query[i];
            response.neighbors[i] = loop {
                let (sweep, covers_everything) = state.sweep();
                let candidates = index.range_query(&sweep, stats);
                if let Some(neighbors) = state.absorb(covers_everything, candidates) {
                    break neighbors;
                }
            };
            continue;
        }
        let mut active: Vec<usize> = group.into_iter().map(|g| live[g]).collect();
        while !active.is_empty() {
            let mut covers = Vec::with_capacity(active.len());
            let requests: Vec<RangeBatchRequest> = active
                .iter()
                .map(|&i| {
                    let (rect, covers_everything) =
                        states[i].as_ref().expect("active plans have state").sweep();
                    covers.push(covers_everything);
                    RangeBatchRequest {
                        rect,
                        collect: true,
                    }
                })
                .collect();
            let (ring, ring_shards) = run_range_batch(kernel, &requests, shards);
            debug_assert_eq!(ring.outputs.len(), active.len());
            shards_used = shards_used.max(ring_shards);
            response.shared.merge(&ring.shared);
            let mut still_active = Vec::with_capacity(active.len());
            for (((i, output), stats), covers_everything) in active
                .iter()
                .copied()
                .zip(ring.outputs)
                .zip(&ring.per_query)
                .zip(covers)
            {
                response.per_query[i].merge(stats);
                let candidates = match output {
                    RangeBatchOutput::Points(points) => points,
                    RangeBatchOutput::Count(_) => {
                        unreachable!("ring requests always collect candidates")
                    }
                };
                let state = states[i].as_mut().expect("active plans have state");
                match state.absorb(covers_everything, candidates) {
                    Some(done) => response.neighbors[i] = done,
                    None => still_active.push(i),
                }
            }
            active = still_active;
        }
    }
    (response, shards_used)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Rect {
        Rect::from_coords(x0, y0, x1, y1)
    }

    #[test]
    fn grouping_is_transitive_and_deterministic() {
        // A overlaps B, B overlaps C (A and C disjoint), D is alone.
        let boxes = [
            rect(0.0, 0.0, 0.2, 0.2),
            rect(0.15, 0.0, 0.35, 0.2),
            rect(0.3, 0.0, 0.5, 0.2),
            rect(0.8, 0.8, 0.9, 0.9),
        ];
        assert_eq!(group_knn_plans(&boxes), vec![vec![0, 1, 2], vec![3]]);
        assert!(group_knn_plans(&[]).is_empty());
    }

    #[test]
    fn state_machine_replicates_the_doubling_loop() {
        let bounds = Rect::UNIT;
        let mut state = KnnSweepState::new(Point::new(0.5, 0.5), 2, 100, bounds)
            .expect("non-trivial plan has state");
        // First sweep is a finite box centred on the query.
        let (sweep, covers) = state.sweep();
        assert!(!covers);
        assert!(sweep.contains(&Point::new(0.5, 0.5)));
        // Too few candidates: the radius doubles.
        assert_eq!(state.absorb(covers, vec![Point::new(0.5, 0.51)]), None);
        let (wider, _) = state.sweep();
        assert!(wider.width() > sweep.width());
        // Enough close candidates resolve the plan, ordered by distance.
        let done = state
            .absorb(
                false,
                vec![
                    Point::new(0.9, 0.9),
                    Point::new(0.5, 0.5),
                    Point::new(0.5, 0.51),
                ],
            )
            .expect("two close candidates inside the radius resolve");
        assert_eq!(done, vec![Point::new(0.5, 0.5), Point::new(0.5, 0.51)]);
    }

    #[test]
    fn trivial_plans_resolve_without_state() {
        assert!(KnnSweepState::new(Point::new(0.5, 0.5), 0, 100, Rect::UNIT).is_none());
        assert!(KnnSweepState::new(Point::new(0.5, 0.5), 3, 0, Rect::UNIT).is_none());
    }
}
