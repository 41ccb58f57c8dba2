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
//! A plan's first ring has half-width
//! [`crate::SpatialIndex::knn_seed_radius`] when the index offers one — the
//! Z-index's is `sqrt(k · area(cell) / count(cell))` over the smallest cell
//! on its Algorithm 1 path to the centre holding at least `k` points — and
//! otherwise `sqrt(k · area(data_bounds) / len)`, the uniform-density
//! guess. Either box holds about `4k` points where the density matches the
//! estimate. The seed is asked once per live plan, by
//! [`KnnSweepState::new`], so both paths charge it alike; it moves only the
//! work, never the answer, because a ring resolves only once every point as
//! close as its k-th candidate lies inside the box.
//!
//! A ring that holds at least `k` candidates keeps its `k` nearest by
//! **selection**, not by sorting every candidate: each candidate is keyed
//! once by (squared distance, position in the ring's output), the `k`
//! smallest keys are selected in linear time, and only those `k` are
//! sorted. That is exactly the first `k` of a stable sort by distance —
//! ties fall to the candidate the ring returned first.
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
    /// Starts the doubling loop for one plan on `index`; `None` when the
    /// plan resolves to an empty answer without scanning (`k == 0`, an
    /// empty index, or a non-finite centre, whose sweep box could never
    /// cover the bounds).
    ///
    /// This is the one place a plan asks for its seed radius
    /// ([`SpatialIndex::knn_seed_radius`], charged to `stats`): after the
    /// trivial checks and with `k` clamped to the index size, so the solo
    /// loop and the fused ring sweep charge the same seed work per plan.
    pub(crate) fn new<I: SpatialIndex + ?Sized>(
        index: &I,
        q: Point,
        k: usize,
        stats: &mut ExecStats,
    ) -> Option<Self> {
        Self::start(q, k, index.len(), index.data_bounds(), |k| {
            index.knn_seed_radius(&q, k, stats)
        })
    }

    /// [`KnnSweepState::new`] over the index's size and bounds, with `seed`
    /// asked for the first radius (given the clamped `k`) only when the
    /// plan is live. Without a seed the radius assumes a uniform density
    /// over the bounds — `sqrt(k · area / len)`, a box of about `4k`
    /// points; see the sequential fallback for the full rationale.
    fn start(
        q: Point,
        k: usize,
        index_len: usize,
        bounds: Rect,
        seed: impl FnOnce(usize) -> Option<f64>,
    ) -> Option<Self> {
        if k == 0 || index_len == 0 || !q.is_finite() {
            return None;
        }
        let k = k.min(index_len);
        let radius = seed(k)
            .unwrap_or_else(|| {
                let area = bounds.area();
                if area.is_finite() && area > 0.0 {
                    (k as f64 * area / index_len as f64).sqrt()
                } else {
                    0.0
                }
            })
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
    ///
    /// The `k` nearest candidates are selected ([`k_nearest`]), ordered by
    /// distance and then by their position in `candidates`; the plan
    /// resolves once the sweep covered everything or the k-th of them lies
    /// within the radius.
    pub(crate) fn absorb(
        &mut self,
        covers_everything: bool,
        candidates: Vec<Point>,
    ) -> Option<Vec<Point>> {
        if covers_everything || candidates.len() >= self.k {
            let nearest = k_nearest(self.q, &candidates, self.k);
            if covers_everything || nearest[self.k - 1].distance(&self.q) <= self.radius {
                return Some(nearest);
            }
        }
        self.radius *= 2.0;
        None
    }
}

/// The `k` candidates nearest to `q`, by increasing distance, ties in
/// candidate order: exactly the first `k` of a stable sort by squared
/// distance. Each candidate is keyed once by (squared distance, position);
/// the keys form a total order, so an unstable selection of the `k`
/// smallest followed by an unstable sort of those `k` is deterministic, in
/// `O(n + k log k)`.
fn k_nearest(q: Point, candidates: &[Point], k: usize) -> Vec<Point> {
    let by_key =
        |a: &(f64, usize), b: &(f64, usize)| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1));
    let mut keys: Vec<(f64, usize)> = candidates
        .iter()
        .map(|p| p.distance_squared(&q))
        .zip(0..)
        .collect();
    if 0 < k && k < keys.len() {
        keys.select_nth_unstable_by(k - 1, by_key);
    }
    keys.truncate(k);
    keys.sort_unstable_by(by_key);
    keys.into_iter().map(|(_, i)| candidates[i]).collect()
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
    let mut states: Vec<Option<KnnSweepState>> = plans
        .iter()
        .zip(&mut response.per_query)
        .map(|(&(q, k), stats)| KnnSweepState::new(index, q, k, stats))
        .collect();
    // Trivial plans (k == 0, empty index, non-finite centre) resolved to
    // empty lists above; the live ones are grouped by their seed boxes.
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
        let mut state = KnnSweepState::start(Point::new(0.5, 0.5), 2, 100, bounds, |_| None)
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
        assert!(KnnSweepState::start(Point::new(0.5, 0.5), 0, 100, Rect::UNIT, |_| None).is_none());
        assert!(KnnSweepState::start(Point::new(0.5, 0.5), 3, 0, Rect::UNIT, |_| None).is_none());
        for q in [
            Point::new(f64::NAN, 0.5),
            Point::new(f64::INFINITY, 0.5),
            Point::new(0.5, f64::NEG_INFINITY),
        ] {
            assert!(
                KnnSweepState::start(q, 3, 100, Rect::UNIT, |_| None).is_none(),
                "{q:?}"
            );
        }
    }

    #[test]
    fn the_seed_is_asked_only_for_live_plans_with_k_clamped() {
        let q = Point::new(0.5, 0.5);
        let refuse = |_| -> Option<f64> { panic!("a trivial plan asked for a seed") };
        assert!(KnnSweepState::start(q, 0, 100, Rect::UNIT, refuse).is_none());
        assert!(KnnSweepState::start(q, 3, 0, Rect::UNIT, refuse).is_none());
        let nan = Point::new(f64::NAN, 0.5);
        assert!(KnnSweepState::start(nan, 3, 100, Rect::UNIT, refuse).is_none());
        let seeded = KnnSweepState::start(q, 500, 100, Rect::UNIT, |k| {
            assert_eq!(k, 100, "k is clamped to the index size");
            Some(0.125)
        })
        .expect("a live plan");
        assert_eq!(
            seeded.sweep().0,
            Rect::from_coords(0.375, 0.375, 0.625, 0.625)
        );
        // Without a seed the first box is the uniform one: k · area / len.
        let uniform = KnnSweepState::start(q, 4, 100, Rect::UNIT, |_| None).expect("a live plan");
        assert_eq!(uniform.sweep().0, Rect::from_coords(0.3, 0.3, 0.7, 0.7));
    }

    /// The reference the selection must equal: a stable sort of every
    /// candidate by squared distance, truncated to `k`.
    fn sorted_nearest(q: Point, candidates: &[Point], k: usize) -> Vec<Point> {
        let mut sorted = candidates.to_vec();
        sorted.sort_by(|a, b| a.distance_squared(&q).total_cmp(&b.distance_squared(&q)));
        sorted.truncate(k);
        sorted
    }

    #[test]
    fn selection_equals_the_stable_sort_ties_included() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x005E_1EC7);
        for round in 0..50 {
            // Coordinates on a 1/8 grid: many candidates share a distance,
            // and a duplicated run repeats some of them outright.
            let n = rng.gen_range(3..200);
            let mut candidates: Vec<Point> = (0..n)
                .map(|_| {
                    Point::new(
                        f64::from(rng.gen_range(0..9u32)) / 8.0,
                        f64::from(rng.gen_range(0..9u32)) / 8.0,
                    )
                })
                .collect();
            let duplicates = candidates[..n / 3].to_vec();
            candidates.extend(duplicates);
            let n = candidates.len();
            let q = Point::new(
                f64::from(rng.gen_range(0..17u32)) / 16.0,
                f64::from(rng.gen_range(0..17u32)) / 16.0,
            );
            for k in [1, 2, n - 1, n, n + 1] {
                let expected = sorted_nearest(q, &candidates, k);
                assert_eq!(
                    k_nearest(q, &candidates, k),
                    expected,
                    "round {round}, k {k}"
                );
                // Through the state machine: a sweep covering everything
                // resolves to the same list.
                let mut state = KnnSweepState::start(q, k, n + 1, Rect::UNIT, |_| None)
                    .expect("non-trivial plan has state");
                assert_eq!(state.absorb(true, candidates.clone()), Some(expected));
            }
        }
        // An empty ring that covers everything resolves to no neighbours.
        let mut state = KnnSweepState::start(Point::new(0.5, 0.5), 4, 10, Rect::UNIT, |_| None)
            .expect("non-trivial plan has state");
        assert_eq!(state.absorb(true, Vec::new()), Some(Vec::new()));
    }
}
