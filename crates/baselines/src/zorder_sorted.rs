//! A rank-space Z-order sorted-array index (the `ZM` / `Zpgm` family).
//!
//! Figure 4 of the paper compares WaZI against several indexes that apply a
//! Z-order curve *in rank space* and then index the resulting one-dimensional
//! keys (Zpgm, HRR, QUILTS, RSMI); all of them perform significantly worse
//! than the primary baselines and are dropped from the detailed experiments.
//! This module provides one representative of that family: points are mapped
//! onto a fixed grid, sorted by Morton code, and range queries scan the code
//! interval `[code(BL), code(TR)]`, using the BIGMIN successor computation to
//! jump over runs of codes outside the query rectangle.

use wazi_core::{
    BatchProjection, IndexError, KernelClass, PointBatchKernel, PointBatchResponse,
    RangeBatchKernel, RangeBatchOutput, RangeBatchRequest, RangeBatchResponse, ShardBounds,
    SpatialIndex, SweepInterval,
};
use wazi_geom::zorder::{bigmin, ZOrderMapper};
use wazi_geom::{Point, Rect};
use wazi_storage::ExecStats;

/// Number of consecutive non-matching entries tolerated before the scan
/// consults BIGMIN to jump forward.
const BIGMIN_PATIENCE: usize = 16;

/// A sorted-array Z-order index in rank (grid) space.
#[derive(Debug, Clone)]
pub struct ZOrderSorted {
    /// `(code, point)` pairs sorted by Morton code.
    entries: Vec<(u64, Point)>,
    mapper: ZOrderMapper,
    /// Bounding box of the indexed points (grown by inserts).
    space: Rect,
}

impl ZOrderSorted {
    /// Builds the index with the given grid resolution (bits per dimension).
    pub fn build(points: Vec<Point>, bits: u32) -> Self {
        let space = if points.is_empty() {
            Rect::UNIT
        } else {
            Rect::bounding(&points)
        };
        let mapper = ZOrderMapper::new(space, bits);
        let mut entries: Vec<(u64, Point)> =
            points.into_iter().map(|p| (mapper.code(&p), p)).collect();
        entries.sort_unstable_by_key(|(code, _)| *code);
        Self {
            entries,
            mapper,
            space,
        }
    }

    /// Builds the index with the default 16-bit grid.
    pub fn with_default_bits(points: Vec<Point>) -> Self {
        Self::build(points, 16)
    }

    /// First array position whose code is `>= code`.
    fn lower_bound(&self, code: u64) -> usize {
        self.entries.partition_point(|(c, _)| *c < code)
    }

    /// The range-scan kernel shared by every execution mode: scans the
    /// Morton-code interval `[code(BL), code(TR)]`, consulting BIGMIN to
    /// jump over runs of codes outside the query rectangle, and invokes
    /// `on_match` for every matching point.
    fn scan_range(&self, query: &Rect, stats: &mut ExecStats, mut on_match: impl FnMut(&Point)) {
        let projection_start = std::time::Instant::now();
        let (lo_code, hi_code) = self.mapper.query_interval(query);
        let start = self.lower_bound(lo_code);
        stats.add_projection(projection_start.elapsed());

        let scan_start = std::time::Instant::now();
        let mut i = start;
        let mut misses = 0usize;
        while i < self.entries.len() {
            let (code, point) = self.entries[i];
            if code > hi_code {
                break;
            }
            stats.points_scanned += 1;
            if query.contains(&point) {
                on_match(&point);
                misses = 0;
            } else {
                misses += 1;
                if misses >= BIGMIN_PATIENCE {
                    // Jump to the next Morton code that can lie inside the
                    // query rectangle.
                    match bigmin(code, lo_code, hi_code) {
                        Some(next_code) => {
                            let next = self.lower_bound(next_code);
                            stats.leaves_skipped += (next.saturating_sub(i + 1)) as u64;
                            i = next;
                            misses = 0;
                            continue;
                        }
                        None => break,
                    }
                }
            }
            i += 1;
        }
        stats.add_scan(scan_start.elapsed());
    }
}

impl SpatialIndex for ZOrderSorted {
    fn name(&self) -> &'static str {
        "Zpgm"
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn data_bounds(&self) -> Rect {
        self.space
    }

    fn range_query(&self, query: &Rect, stats: &mut ExecStats) -> Vec<Point> {
        let mut result = Vec::new();
        self.scan_range(query, stats, |p| result.push(*p));
        stats.results += result.len() as u64;
        result
    }

    fn range_count(&self, query: &Rect, stats: &mut ExecStats) -> u64 {
        let mut count = 0u64;
        self.scan_range(query, stats, |_| count += 1);
        stats.results += count;
        count
    }

    fn range_for_each(&self, query: &Rect, stats: &mut ExecStats, visit: &mut dyn FnMut(&Point)) {
        let mut matched = 0u64;
        self.scan_range(query, stats, |p| {
            matched += 1;
            visit(p);
        });
        stats.results += matched;
    }

    fn point_query(&self, p: &Point, stats: &mut ExecStats) -> bool {
        let start = std::time::Instant::now();
        let code = self.mapper.code(p);
        let mut i = self.lower_bound(code);
        let mut found = false;
        while i < self.entries.len() && self.entries[i].0 == code {
            stats.points_scanned += 1;
            if self.entries[i].1 == *p {
                found = true;
                break;
            }
            i += 1;
        }
        stats.add_scan(start.elapsed());
        if found {
            stats.results += 1;
        }
        found
    }

    fn insert(&mut self, p: Point) -> Result<(), IndexError> {
        if !p.is_finite() {
            return Err(IndexError::InvalidInput(format!("non-finite point {p}")));
        }
        let code = self.mapper.code(&p);
        let position = self.lower_bound(code);
        self.entries.insert(position, (code, p));
        self.space.expand(&p);
        Ok(())
    }

    fn size_bytes(&self) -> usize {
        // The sorted code array is the index structure itself.
        std::mem::size_of::<Self>() + self.entries.len() * std::mem::size_of::<u64>()
    }

    fn range_batch_kernel(&self) -> Option<&dyn RangeBatchKernel> {
        // An empty array has no address space to project onto.
        (!self.entries.is_empty()).then_some(self as &dyn RangeBatchKernel)
    }

    fn point_batch_kernel(&self) -> Option<&dyn PointBatchKernel> {
        Some(self)
    }
}

/// The sorted array's fused range kernel: a **shared BIGMIN sweep**. All
/// requests' code intervals execute as one ascending walk over the entry
/// array: every request carries its own cursor (next array position to
/// examine), its own miss counter and its own BIGMIN jumps, exactly like
/// the sequential [`ZOrderSorted`] scan — but an entry inside several
/// genuinely overlapping code intervals is loaded once per sweep step and
/// served to every request due there, instead of once per request in
/// arrival order. Per-request counters (points compared, BIGMIN skips,
/// results) and result order are bit-identical to the sequential scan's;
/// the kernel also lets the engine's batched kNN path drive this index's
/// ring sweeps.
///
/// Requests due at the current entry live in a dense `hot` vector (the
/// common case: an in-interval request re-arms for the very next entry);
/// requests whose BIGMIN jump parked them at a later position wait in a
/// min-heap keyed on their cursor, so a step costs only its due requests
/// plus `O(log n)` per actual jump.
///
/// Unlike the page-backed indexes, the flat array has no physical fetch to
/// save — fusion buys ordering and shared entry loads, not fewer pages —
/// so on heavily stacked batches the sweep's per-step coordination can
/// cost wall-clock relative to the per-request loop while counters stay
/// identical. The kernel declares [`KernelClass::FlatArray`] so the
/// engine's `Auto` strategy routes such batches to the sequential loop
/// unless parallelism can split the sweep.
///
/// The sweep address space is the entry array itself (one address per
/// sorted `(code, point)` pair), and a shard owns every request whose code
/// interval's first array position — the position the sequential scan's
/// initial binary search lands on — falls inside its bounds
/// ([`BatchProjection::owned_by`]). The owning shard runs the request's
/// whole shared-BIGMIN walk, jumps included, so per-request counters are
/// bit-identical for every shard count by the same argument as the other
/// kernels: each walk *is* the solo sequential walk.
///
/// The footprint is the trait's default, the estimate from the intervals
/// alone: one address holds exactly one point, so unit weights already
/// measure the interval's scan work, and the BIGMIN jumps only shorten it.
impl RangeBatchKernel for ZOrderSorted {
    fn cost_class(&self) -> KernelClass {
        KernelClass::FlatArray
    }

    fn project_batch(&self, requests: &[RangeBatchRequest]) -> BatchProjection {
        let projection_start = std::time::Instant::now();
        let intervals = requests
            .iter()
            .map(|request| {
                let (lo_code, hi_code) = self.mapper.query_interval(&request.rect);
                // First array position the sequential scan examines. It may
                // equal `entries.len()` — the scan starts past the end and
                // charges nothing; such a request is owned by no in-range
                // shard and correctly produces a zeroed slot.
                let lo = self.lower_bound(lo_code) as u32;
                // Last entry inside the code interval. An empty interval
                // (no entry with lo_code <= code <= hi_code) clamps to a
                // degenerate one-address interval at `lo`, where the sweep
                // examines one code and charges nothing — exactly like the
                // sequential scan's immediate break.
                let end = self.entries.partition_point(|(c, _)| *c <= hi_code);
                let hi = (end.saturating_sub(1) as u32).max(lo);
                SweepInterval { lo, hi }
            })
            .collect();
        BatchProjection {
            intervals,
            // The binary searches are re-run by the owning shard's sweep;
            // like Flood's column projection, this phase charges no
            // per-query counters, only its wall-clock.
            per_query: vec![ExecStats::default(); requests.len()],
            elapsed_ns: projection_start.elapsed().as_nanos() as u64,
        }
    }

    fn sweep_shard(
        &self,
        requests: &[RangeBatchRequest],
        projection: &BatchProjection,
        bounds: ShardBounds,
    ) -> RangeBatchResponse {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let mut response = RangeBatchResponse::zeroed(requests);
        // Per-request sweep state, packed into one record so the hot loop
        // touches a single cache line per due request: the interval codes,
        // the filter rectangle and the miss counter. Each owned request
        // enters the sweep parked at its interval's first array position.
        struct SweepState {
            lo_code: u64,
            hi_code: u64,
            rect: Rect,
            misses: usize,
        }
        let mut states: Vec<SweepState> = requests
            .iter()
            .map(|request| SweepState {
                lo_code: 0,
                hi_code: 0,
                rect: request.rect,
                misses: 0,
            })
            .collect();
        let mut parked: BinaryHeap<Reverse<(usize, usize)>> = BinaryHeap::new();
        for (lo, qi) in projection.owned_by(bounds) {
            let (lo_code, hi_code) = self.mapper.query_interval(&states[qi].rect);
            states[qi].lo_code = lo_code;
            states[qi].hi_code = hi_code;
            parked.push(Reverse((lo as usize, qi)));
        }

        let scan_start = std::time::Instant::now();
        let mut hot: Vec<usize> = Vec::new();
        let mut rearmed: Vec<usize> = Vec::new();
        let mut i = match parked.peek() {
            Some(&Reverse((at, _))) => at,
            None => return response,
        };
        while i < self.entries.len() {
            while let Some(&Reverse((at, qi))) = parked.peek() {
                if at > i {
                    break;
                }
                parked.pop();
                hot.push(qi);
            }
            if hot.is_empty() {
                match parked.peek() {
                    Some(&Reverse((at, _))) => {
                        i = at;
                        continue;
                    }
                    None => break,
                }
            }
            // One load of the entry on behalf of every due request.
            let (code, point) = self.entries[i];
            rearmed.clear();
            for &qi in &hot {
                let state = &mut states[qi];
                if code > state.hi_code {
                    continue; // this request's interval is exhausted
                }
                let stats = &mut response.per_query[qi];
                stats.points_scanned += 1;
                if state.rect.contains(&point) {
                    match &mut response.outputs[qi] {
                        RangeBatchOutput::Points(out) => out.push(point),
                        RangeBatchOutput::Count(count) => *count += 1,
                    }
                    stats.results += 1;
                    state.misses = 0;
                    rearmed.push(qi);
                } else {
                    state.misses += 1;
                    if state.misses >= BIGMIN_PATIENCE {
                        // This request's own BIGMIN jump, charged exactly as
                        // the sequential scan charges it; other requests
                        // keep sweeping the run it skips.
                        state.misses = 0;
                        // `None` means nothing ahead can match: the
                        // request simply leaves the sweep.
                        if let Some(next_code) = bigmin(code, state.lo_code, state.hi_code) {
                            let next = self.lower_bound(next_code);
                            stats.leaves_skipped += next.saturating_sub(i + 1) as u64;
                            if next < self.entries.len() {
                                parked.push(Reverse((next, qi)));
                            }
                        }
                    } else {
                        rearmed.push(qi);
                    }
                }
            }
            std::mem::swap(&mut hot, &mut rearmed);
            i += 1;
        }
        response.shared.scan_ns += scan_start.elapsed().as_nanos() as u64;
        response
    }
}

/// The sorted array's fused point-probe kernel: the owning-page address is
/// the probe's Morton code itself, so duplicate probes (and distinct probes
/// mapping onto one grid cell) group onto a single binary search of the
/// code array; every probe still pays its own equal-code-run comparisons,
/// exactly as the sequential probe charges them.
impl PointBatchKernel for ZOrderSorted {
    fn locate_probes(&self, probes: &[Point], _per_query: &mut [ExecStats]) -> Vec<u64> {
        probes.iter().map(|p| self.mapper.code(p)).collect()
    }

    fn probe_page(
        &self,
        address: u64,
        group: &[(usize, Point)],
        response: &mut PointBatchResponse,
    ) {
        // One shared binary search per distinct code.
        let start = self.lower_bound(address);
        for &(slot, p) in group {
            let stats = &mut response.per_query[slot];
            let mut at = start;
            let mut found = false;
            while at < self.entries.len() && self.entries[at].0 == address {
                stats.points_scanned += 1;
                if self.entries[at].1 == p {
                    found = true;
                    break;
                }
                at += 1;
            }
            if found {
                stats.results += 1;
                response.found[slot] = true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn dataset(n: usize, seed: u64) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new(rng.gen::<f64>(), rng.gen::<f64>()))
            .collect()
    }

    #[test]
    fn range_queries_match_brute_force() {
        let points = dataset(5_000, 1);
        let index = ZOrderSorted::with_default_bits(points.clone());
        let mut stats = ExecStats::default();
        for query in [
            Rect::from_coords(0.1, 0.1, 0.2, 0.2),
            Rect::from_coords(0.4, 0.1, 0.9, 0.3),
            Rect::from_coords(0.0, 0.0, 1.0, 1.0),
        ] {
            let mut got = index.range_query(&query, &mut stats);
            got.sort_by(|a, b| a.lex_cmp(b));
            let mut expected: Vec<Point> = points
                .iter()
                .copied()
                .filter(|p| query.contains(p))
                .collect();
            expected.sort_by(|a, b| a.lex_cmp(b));
            assert_eq!(got, expected);
        }
    }

    #[test]
    fn bigmin_skipping_reduces_scanned_points_for_elongated_queries() {
        let points = dataset(20_000, 2);
        let index = ZOrderSorted::with_default_bits(points.clone());
        // A tall, thin query forces the Z-curve to wander far outside the
        // rectangle; BIGMIN should avoid scanning the whole code interval.
        let query = Rect::from_coords(0.48, 0.05, 0.52, 0.95);
        let mut stats = ExecStats::default();
        let result = index.range_query(&query, &mut stats);
        let expected = points.iter().filter(|p| query.contains(p)).count();
        assert_eq!(result.len(), expected);
        assert!(
            (stats.points_scanned as usize) < points.len() / 2,
            "scanned {} of {} points despite BIGMIN",
            stats.points_scanned,
            points.len()
        );
        assert!(stats.leaves_skipped > 0, "BIGMIN never jumped");
    }

    #[test]
    fn point_queries_and_inserts() {
        let points = dataset(2_000, 3);
        let mut index = ZOrderSorted::with_default_bits(points.clone());
        let mut stats = ExecStats::default();
        assert!(index.point_query(&points[55], &mut stats));
        assert!(!index.point_query(&Point::new(0.555_123, 0.321_555), &mut stats));
        index.insert(Point::new(0.5, 0.5)).expect("insert");
        assert!(index.point_query(&Point::new(0.5, 0.5), &mut stats));
        assert_eq!(index.len(), 2_001);
    }

    #[test]
    fn empty_index() {
        let index = ZOrderSorted::with_default_bits(Vec::new());
        let mut stats = ExecStats::default();
        assert!(index.range_query(&Rect::UNIT, &mut stats).is_empty());
        assert!(!index.point_query(&Point::new(0.5, 0.5), &mut stats));
        assert_eq!(index.name(), "Zpgm");
    }

    /// The shared BIGMIN sweep must replicate every request's sequential
    /// scan exactly — comparisons, per-request BIGMIN skips, results in
    /// ascending code order — on genuinely overlapping code intervals
    /// (stacked elongated queries whose Z-curve walks interleave) as well
    /// as on disjoint ones.
    #[test]
    fn shared_bigmin_sweep_matches_sequential_per_request() {
        use wazi_core::{RangeBatchOutput, RangeBatchRequest};
        let points = dataset(20_000, 4);
        let index = ZOrderSorted::with_default_bits(points);
        // Overlapping tall-thin queries (BIGMIN jumps fire), one broad
        // query covering them, and a disjoint far-corner query.
        let mut rects: Vec<Rect> = (0..8)
            .map(|i| {
                let x = 0.46 + 0.01 * i as f64;
                Rect::from_coords(x, 0.05, x + 0.04, 0.95)
            })
            .collect();
        rects.push(Rect::from_coords(0.4, 0.0, 0.6, 1.0));
        rects.push(Rect::from_coords(0.9, 0.9, 0.99, 0.99));
        let requests: Vec<RangeBatchRequest> = rects
            .iter()
            .enumerate()
            .map(|(i, rect)| RangeBatchRequest {
                rect: *rect,
                collect: i % 2 == 0,
            })
            .collect();
        let kernel = index.range_batch_kernel().expect("Zpgm fuses ranges");
        let (response, _) = wazi_core::run_range_batch(kernel, &requests, 1);
        for (qi, request) in requests.iter().enumerate() {
            let mut stats = ExecStats::default();
            if request.collect {
                let expected = index.range_query(&request.rect, &mut stats);
                assert_eq!(
                    response.outputs[qi],
                    RangeBatchOutput::Points(expected),
                    "request {qi}: points or order differ"
                );
            } else {
                let expected = index.range_count(&request.rect, &mut stats);
                assert_eq!(response.outputs[qi], RangeBatchOutput::Count(expected));
            }
            assert_eq!(
                response.per_query[qi].points_scanned, stats.points_scanned,
                "request {qi}: comparisons differ"
            );
            assert_eq!(
                response.per_query[qi].leaves_skipped, stats.leaves_skipped,
                "request {qi}: BIGMIN skips differ"
            );
            assert_eq!(response.per_query[qi].results, stats.results);
        }
        assert!(
            response.per_query.iter().any(|s| s.leaves_skipped > 0),
            "elongated queries must exercise the BIGMIN jumps"
        );
    }

    /// Owner-based sharding of the entry array must reproduce the single
    /// fused sweep bit-for-bit — outputs, comparisons and BIGMIN skips —
    /// for every shard count, including plans that cut through the middle
    /// of crossing intervals.
    #[test]
    fn sharded_sweep_is_bit_identical_for_every_shard_count() {
        use wazi_core::run_range_batch;
        let points = dataset(20_000, 5);
        let index = ZOrderSorted::with_default_bits(points);
        let mut rects: Vec<Rect> = (0..6)
            .map(|i| {
                let x = 0.1 + 0.12 * i as f64;
                Rect::from_coords(x, 0.05, x + 0.2, 0.95)
            })
            .collect();
        rects.push(Rect::from_coords(0.0, 0.0, 1.0, 1.0));
        rects.push(Rect::from_coords(0.93, 0.93, 0.97, 0.97));
        // A rectangle outside the data bounds: its scan starts past the end
        // of the array and must stay zeroed in every plan.
        rects.push(Rect::from_coords(1.5, 1.5, 1.6, 1.6));
        let requests: Vec<RangeBatchRequest> = rects
            .iter()
            .enumerate()
            .map(|(i, rect)| RangeBatchRequest {
                rect: *rect,
                collect: i % 2 == 0,
            })
            .collect();
        let kernel = index.range_batch_kernel().expect("Zpgm fuses ranges");
        let (full, one) = run_range_batch(kernel, &requests, 1);
        assert_eq!(one, 1);
        for shards in [2usize, 3, 4, 8, 64] {
            let (merged, used) = run_range_batch(kernel, &requests, shards);
            assert!(used >= 2 && used <= shards, "{shards} shards: swept {used}");
            assert_eq!(
                merged.outputs, full.outputs,
                "{shards} shards: outputs differ"
            );
            for (qi, (got, want)) in merged.per_query.iter().zip(&full.per_query).enumerate() {
                assert_eq!(
                    got.points_scanned, want.points_scanned,
                    "{shards} shards, request {qi}: comparisons differ"
                );
                assert_eq!(
                    got.leaves_skipped, want.leaves_skipped,
                    "{shards} shards, request {qi}: BIGMIN skips differ"
                );
                assert_eq!(got.results, want.results);
            }
        }
    }

    /// An empty index advertises no range kernel (there is no address space
    /// to cut) — and driven directly it still answers zeroed slots — while
    /// the flat array declares the flat cost class.
    #[test]
    fn sharded_capability_and_cost_class() {
        let empty = ZOrderSorted::with_default_bits(Vec::new());
        assert!(
            empty.range_batch_kernel().is_none(),
            "no address space when empty"
        );
        let requests = [RangeBatchRequest {
            rect: Rect::UNIT,
            collect: true,
        }];
        let (response, _) = wazi_core::run_range_batch(&empty, &requests, 4);
        let zeroed = RangeBatchResponse::zeroed(&requests);
        assert_eq!(response.outputs, zeroed.outputs);
        assert_eq!(response.per_query, zeroed.per_query);
        let index = ZOrderSorted::with_default_bits(dataset(100, 6));
        let kernel = index.range_batch_kernel().expect("kernel exists");
        assert_eq!(kernel.cost_class(), KernelClass::FlatArray);
    }
}
