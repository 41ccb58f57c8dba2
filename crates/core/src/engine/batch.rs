//! The fused batch-execution seam between the engine and the indexes.
//!
//! The engine speaks to indexes through [`crate::SpatialIndex`], one query
//! at a time. An index that can do better on a *batch* — WaZI scans each
//! relevant page once per batch instead of once per overlapping query —
//! advertises the capability by returning itself from
//! [`crate::SpatialIndex::range_batch_kernel`] and implementing
//! [`RangeBatchKernel`]. The engine's fused strategies route every range
//! plan and point probe of a batch through the kernel and fall back to the
//! sequential loop for indexes without one, so fusion is purely an
//! optimization: answers are identical either way.
//!
//! The index says *where* the points are; this module decides *how* they
//! are read. [`RangeBatchKernel::walk`] runs every range request's solo
//! walk once, charging it its checks, skips and node visits, and returns a
//! [`WalkRecord`]: the units (leaves, pages, columns, pieces) each request
//! must scan, in one ascending order the kernel defines for the whole
//! batch. [`RangeBatchKernel::locate`] does the same for a point probe: the
//! record of a point partition holds, per probe, a run of at most one unit
//! — the one it reads first. Reading a unit is the one difference between
//! the two: [`RangeBatchKernel::scan`] filters it for a range,
//! [`RangeBatchKernel::probe`] probes it for a point. Everything else is
//! here, and the record is the plan of every schedule, so a request is
//! walked or located exactly once per batch:
//!
//! * the cost model prices the footprint summed from a range record
//!   ([`WalkRecord::footprint`]);
//! * a request answered on its own ([`solo_range`]) replays its run, one
//!   page visit per unit;
//! * the fused route ([`run_range_batch`]) groups the record into unit →
//!   requests and reads each distinct unit once for all of its requests,
//!   in ascending unit order — which is every request's own scan order, so
//!   each output comes out in its solo order;
//! * the sharded route cuts the *distinct-unit list* into contiguous,
//!   work-balanced chunks read on worker threads, so a unit is fetched
//!   exactly once per batch whatever the shard count, and outputs
//!   concatenate in chunk order.

use std::ops::Range;
use std::sync::OnceLock;
use std::time::Instant;

use wazi_geom::{Point, Rect};
use wazi_storage::{ExecStats, Page};

use super::cost::RangeBatchStats;

/// One range request of a fused batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RangeBatchRequest {
    /// The query rectangle.
    pub rect: Rect,
    /// Whether the matching points must be materialized. `Count` and
    /// `Stream` plans set this to `false`: the kernel only tallies matches.
    pub collect: bool,
}

/// Per-request answer of a fused batch.
#[derive(Debug, Clone, PartialEq)]
pub enum RangeBatchOutput {
    /// Materialized matches of a collecting request, in the index's scan
    /// order (identical to the order the sequential path produces).
    Points(Vec<Point>),
    /// Match count of a non-collecting request.
    Count(u64),
}

impl RangeBatchOutput {
    /// Filters one page into this output: the request is charged the
    /// page's points and its matches, but not the page visit, which the
    /// caller charges (once per request on the sequential route, once per
    /// batch on the fused one).
    pub fn scan_page(&mut self, page: &Page, rect: &Rect, stats: &mut ExecStats) {
        match self {
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

    /// Filters a run of points into this output, keeping those `keep`
    /// accepts: the request is charged every point of the run and its
    /// matches, but not the visit.
    pub fn scan_run(
        &mut self,
        run: &[Point],
        keep: impl Fn(&Point) -> bool,
        stats: &mut ExecStats,
    ) {
        stats.points_scanned += run.len() as u64;
        let matches = match self {
            RangeBatchOutput::Points(out) => {
                let before = out.len();
                out.extend(run.iter().filter(|p| keep(p)));
                (out.len() - before) as u64
            }
            RangeBatchOutput::Count(count) => {
                let matches: u64 = run.iter().map(|p| u64::from(keep(p))).sum();
                *count += matches;
                matches
            }
        };
        stats.results += matches;
    }
}

/// The engine's answer to a batch: parallel to the request slice.
#[derive(Debug, Clone, PartialEq)]
pub struct RangeBatchResponse {
    /// One output per request, in request order.
    pub outputs: Vec<RangeBatchOutput>,
    /// Work attributable to a single request (its corner projections, its
    /// bounding-box checks, its point comparisons and results).
    pub per_query: Vec<ExecStats>,
    /// Work performed once on behalf of the whole batch: one visit per
    /// distinct unit scanned, the walk's time (projection phase) and the
    /// scan's (scan phase).
    pub shared: ExecStats,
}

impl RangeBatchResponse {
    /// A zero-work response shaped for `requests`: empty point vectors for
    /// collecting requests, zero counts otherwise, default stats.
    pub fn zeroed(requests: &[RangeBatchRequest]) -> Self {
        Self {
            outputs: requests
                .iter()
                .map(|r| {
                    if r.collect {
                        RangeBatchOutput::Points(Vec::new())
                    } else {
                        RangeBatchOutput::Count(0)
                    }
                })
                .collect(),
            per_query: vec![ExecStats::default(); requests.len()],
            shared: ExecStats::default(),
        }
    }
}

/// What a batch's walks found: for every request, its *run* — the units it
/// must scan, ascending in the order the kernel defines for the batch — and
/// what reaching them cost it. Four bytes per unit visit the sequential
/// loop would make.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WalkRecord {
    /// Every request's run, request after request.
    pub units: Vec<u32>,
    /// Request `i`'s run is `units[offsets[i]..offsets[i + 1]]`; one entry
    /// more than there are requests.
    pub offsets: Vec<u32>,
    /// The handle [`RangeBatchKernel::scan`] takes for each unit id, for
    /// kernels whose ids are batch-local (the R-trees number leaves in the
    /// order the batch descent first reaches them and map each to its
    /// page); empty when a unit id is its own handle.
    pub handles: Vec<u32>,
    /// Points on the recorded units, with multiplicity: the Eq. 5 point
    /// charge the scans will make.
    pub points: u64,
    /// Per-request walk work: corner projections, bounding-box checks,
    /// node visits and look-ahead skips, charged as the sequential walk
    /// charges them.
    pub per_query: Vec<ExecStats>,
    /// Wall-clock of the walk in nanoseconds, stamped by the engine.
    pub walk_ns: u64,
}

impl WalkRecord {
    /// An empty record for `requests` requests, ready for their runs to be
    /// appended in request order, each closed by [`WalkRecord::end_run`].
    pub fn new(requests: usize) -> Self {
        let mut offsets = Vec::with_capacity(requests + 1);
        offsets.push(0);
        Self {
            offsets,
            per_query: vec![ExecStats::default(); requests],
            ..Self::default()
        }
    }

    /// Closes the run of the next request: the units appended since the
    /// previous call are its run.
    pub fn end_run(&mut self) {
        self.offsets.push(self.units.len() as u32);
    }

    /// Number of requests the record covers.
    pub fn requests(&self) -> usize {
        self.per_query.len()
    }

    /// Request `request`'s run.
    pub fn run(&self, request: usize) -> &[u32] {
        &self.units[self.offsets[request] as usize..self.offsets[request + 1] as usize]
    }

    /// The handle [`RangeBatchKernel::scan`] takes for `unit`.
    pub fn handle(&self, unit: u32) -> u32 {
        self.handles.get(unit as usize).copied().unwrap_or(unit)
    }

    /// The smallest and largest recorded unit, `None` for no units.
    fn unit_span(&self) -> Option<(u32, u32)> {
        let first = *self.units.first()?;
        Some(self.units.iter().fold((first, first), |(lo, hi), &unit| {
            (lo.min(unit), hi.max(unit))
        }))
    }

    /// What the record's schedules will charge, without charging anything:
    /// the walks' checks, the page visits (one per recorded unit), the
    /// distinct units (one fetch each for a fused scan, counted with a
    /// bitset over the recorded span) and the points.
    pub fn footprint(&self) -> RangeBatchStats {
        let mut stats = RangeBatchStats {
            checks: self.per_query.iter().map(|stats| stats.bbs_checked).sum(),
            page_visits: self.units.len() as u64,
            points: self.points,
            requests: self.requests(),
            ..RangeBatchStats::default()
        };
        if let Some((lo, hi)) = self.unit_span() {
            let mut seen = vec![0u64; (hi - lo) as usize / 64 + 1];
            for &unit in &self.units {
                let bit = (unit - lo) as usize;
                let (word, mask) = (&mut seen[bit / 64], 1u64 << (bit % 64));
                stats.distinct_pages += u64::from(*word & mask == 0);
                *word |= mask;
            }
        }
        stats
    }
}

/// Fused execution of many range requests and point probes: the index
/// walks and locates, the engine schedules the reads (`Sync` because chunks
/// of a batch may be read concurrently against the same index).
///
/// # Contract
///
/// * [`RangeBatchKernel::walk`] charges each request exactly the checks,
///   skips, node visits and projections its sequential walk charges, and
///   records its run: the units the sequential walk scans, in the order it
///   scans them, which must be ascending in one order the kernel defines
///   for the whole batch.
/// * [`RangeBatchKernel::scan`] of one unit for one request produces, and
///   charges, exactly what the sequential walk's visit of that unit
///   produces and charges — matches in scan order, points, results — except
///   the page visit itself, which the engine charges.
///
/// * [`RangeBatchKernel::locate`], one visit of the located unit and
///   [`RangeBatchKernel::probe`] together charge exactly what the solo
///   probe charges; the kernel decides which of the two calls charges
///   what.
///
/// Replaying each run then reproduces the sequential path bit for bit, and
/// reading the distinct units in ascending order for all of their
/// requests at once does too, per request: fusion shares page fetches, it
/// never adds work.
pub trait RangeBatchKernel: Sync {
    /// Runs every request's walk once and records it. Called once per
    /// batch (once per ring of a kNN batch), before anything is scanned.
    fn walk(&self, requests: &[RangeBatchRequest]) -> WalkRecord;

    /// Filters the unit with handle `unit` ([`WalkRecord::handle`]) for one
    /// request with rectangle `rect`, charging `stats` its points and
    /// matches but not the visit.
    fn scan(&self, unit: u32, rect: &Rect, output: &mut RangeBatchOutput, stats: &mut ExecStats);

    /// The unit a probe for `p` reads first, `None` when it reads no unit,
    /// charging `stats` the kernel's share of the solo probe's work.
    fn locate(&self, p: &Point, stats: &mut ExecStats) -> Option<u32>;

    /// Everything the solo probe for `p` does once `locate` named `unit`,
    /// except the visit of `unit`, which the engine charges: comparisons,
    /// and any further unit the probe reads with its visit. Returns
    /// whether `p` is indexed.
    fn probe(&self, unit: u32, p: &Point, stats: &mut ExecStats) -> bool;
}

/// Worker threads the host can usefully run
/// ([`std::thread::available_parallelism`], one when unknown), read once
/// per process: the query reads cgroup files, which costs microseconds per
/// call. Feeds the oversubscription guard of the threaded unit reads and
/// the cost model's parallel-candidate gate — on a
/// single-core host the model never picks
/// [`crate::BatchStrategy::FusedParallel`].
pub(crate) fn available_workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Walks `requests` through `kernel` and stamps the walk's wall-clock.
pub(crate) fn walk(kernel: &dyn RangeBatchKernel, requests: &[RangeBatchRequest]) -> WalkRecord {
    let start = Instant::now();
    let mut record = kernel.walk(requests);
    debug_assert_eq!(
        record.offsets.len(),
        requests.len() + 1,
        "one run a request"
    );
    debug_assert_eq!(record.per_query.len(), requests.len());
    record.walk_ns = start.elapsed().as_nanos() as u64;
    record
}

/// Runs a whole range batch through `kernel`: walk once, then scan the
/// distinct units in up to `shards` work-balanced chunks and merge the
/// chunks' partial responses in chunk order. Returns the merged response
/// and the number of chunks planned (one when `shards <= 1` or the batch
/// has a single distinct unit or none).
///
/// Every shard count yields bit-identical outputs and counters, shared
/// page visits included: each distinct unit is fetched once per batch.
pub fn run_range_batch(
    kernel: &dyn RangeBatchKernel,
    requests: &[RangeBatchRequest],
    shards: usize,
) -> (RangeBatchResponse, usize) {
    let record = walk(kernel, requests);
    run_walked_batch(kernel, requests, &record, shards)
}

/// [`run_range_batch`] with the walk already done — the entry point Auto
/// uses, so the record it priced is the plan it executes.
pub(crate) fn run_walked_batch(
    kernel: &dyn RangeBatchKernel,
    requests: &[RangeBatchRequest],
    record: &WalkRecord,
    shards: usize,
) -> (RangeBatchResponse, usize) {
    let zeroed = RangeBatchResponse::zeroed(requests);
    read_walked(record, shards, zeroed, &filter(kernel, requests))
}

/// Locates every probe through `kernel` and stamps the time taken: a
/// record whose runs hold at most one unit each, the unit the probe reads
/// first.
pub(crate) fn locate(kernel: &dyn RangeBatchKernel, probes: &[Point]) -> WalkRecord {
    let start = Instant::now();
    let mut record = WalkRecord::new(probes.len());
    record.units.reserve(probes.len());
    for (p, stats) in probes.iter().zip(&mut record.per_query) {
        record.units.extend(kernel.locate(p, stats));
        record.offsets.push(record.units.len() as u32);
    }
    record.walk_ns = start.elapsed().as_nanos() as u64;
    record
}

/// Runs a point partition through `kernel`: every probe located, then the
/// located units read as a range batch's are, each probe probing its
/// unit. A probe's output counts its match, zero or one. Returns the
/// merged response and the number of chunks planned.
pub(crate) fn run_probe_batch(
    kernel: &dyn RangeBatchKernel,
    probes: &[Point],
    shards: usize,
) -> (RangeBatchResponse, usize) {
    let record = locate(kernel, probes);
    let zeroed = RangeBatchResponse {
        outputs: vec![RangeBatchOutput::Count(0); probes.len()],
        per_query: vec![ExecStats::default(); probes.len()],
        shared: ExecStats::default(),
    };
    read_walked(&record, shards, zeroed, &|unit, qi, output, stats| {
        let found = u64::from(kernel.probe(unit, &probes[qi], stats));
        stats.results += found;
        if let RangeBatchOutput::Count(count) = output {
            *count += found;
        }
    })
}

/// What reading one unit does for one request of a walked batch, given
/// the unit's handle, the request's position, its output and its stats:
/// filter the unit for a range, probe it for a point.
pub(crate) type ReadUnit<'a> =
    dyn Fn(u32, usize, &mut RangeBatchOutput, &mut ExecStats) + Sync + 'a;

/// Reading a unit for a range request: [`RangeBatchKernel::scan`] with the
/// request's rectangle.
pub(crate) fn filter<'a>(
    kernel: &'a dyn RangeBatchKernel,
    requests: &'a [RangeBatchRequest],
) -> impl Fn(u32, usize, &mut RangeBatchOutput, &mut ExecStats) + Sync + 'a {
    move |unit, qi, output, stats| kernel.scan(unit, &requests[qi].rect, output, stats)
}

/// Reads the distinct units of `record` in up to `shards` work-balanced
/// chunks into partial responses, each `zeroed` or a copy of it, and
/// merges them in chunk order.
///
/// Oversubscription guard: worker threads are capped at the host's
/// [`available_workers`], each reading a contiguous run of chunks. The
/// chunk plan itself never depends on the host, and neither does any
/// counter: on a single-core host every chunk is read inline.
fn read_walked(
    record: &WalkRecord,
    shards: usize,
    zeroed: RangeBatchResponse,
    read: &ReadUnit<'_>,
) -> (RangeBatchResponse, usize) {
    let groups = UnitGroups::of(record);
    let chunks = plan_unit_chunks(&groups, shards);
    let workers = available_workers().min(chunks.len());
    let partials = if workers <= 1 {
        vec![scan_units(record, &groups, 0..groups.len(), zeroed, read)]
    } else {
        let spans: Vec<Range<usize>> = chunks
            .chunks(chunks.len().div_ceil(workers))
            .map(|run| run[0].start..run[run.len() - 1].end)
            .collect();
        scan_spans_threaded(record, &groups, &spans, &zeroed, read)
    };
    (merge_partials(record, partials), chunks.len().max(1))
}

/// The sequential loop: replays request `qi`'s run from `record`, one page
/// visit per unit, scanning each unit into `output`. The one definition of
/// what a request answered on its own charges; the replay's time is its
/// scan phase.
pub(crate) fn replay_run(
    kernel: &dyn RangeBatchKernel,
    record: &WalkRecord,
    qi: usize,
    rect: &Rect,
    output: &mut RangeBatchOutput,
    stats: &mut ExecStats,
) {
    let start = Instant::now();
    for &unit in record.run(qi) {
        stats.pages_scanned += 1;
        kernel.scan(record.handle(unit), rect, output, stats);
    }
    stats.scan_ns += start.elapsed().as_nanos() as u64;
}

/// One range request answered on its own: walked by `kernel`, its run
/// replayed ([`replay_run`]). The walk's time is the projection phase.
pub(crate) fn solo_range(
    kernel: &dyn RangeBatchKernel,
    rect: &Rect,
    output: &mut RangeBatchOutput,
    stats: &mut ExecStats,
) {
    let request = RangeBatchRequest {
        rect: *rect,
        collect: matches!(output, RangeBatchOutput::Points(_)),
    };
    let record = walk(kernel, std::slice::from_ref(&request));
    stats.merge(&record.per_query[0]);
    stats.projection_ns += record.walk_ns;
    replay_run(kernel, &record, 0, rect, output, stats);
}

/// [`crate::SpatialIndex::range_query`] of an index with a fused range
/// kernel: the request walked and replayed alone, the sequential loop's
/// answer and charges. Every kernel-bearing index answers `range_query`
/// with this one call.
pub fn solo_range_query(
    kernel: &dyn RangeBatchKernel,
    query: &Rect,
    stats: &mut ExecStats,
) -> Vec<Point> {
    let mut output = RangeBatchOutput::Points(Vec::new());
    solo_range(kernel, query, &mut output, stats);
    match output {
        RangeBatchOutput::Points(points) => points,
        RangeBatchOutput::Count(_) => unreachable!("a collecting request"),
    }
}

/// [`crate::SpatialIndex::point_query`] of an index with a fused kernel:
/// the batch of one, without a record. The probe is located (the
/// projection phase) and, when it reads a unit, charged that unit's visit
/// and probed (the scan phase). Every kernel-bearing index answers
/// `point_query` with this one call.
pub fn solo_point_query<K: RangeBatchKernel + ?Sized>(
    kernel: &K,
    p: &Point,
    stats: &mut ExecStats,
) -> bool {
    let start = Instant::now();
    let unit = kernel.locate(p, stats);
    let located = Instant::now();
    stats.add_projection(located - start);
    let Some(unit) = unit else {
        return false;
    };
    stats.pages_scanned += 1;
    let found = kernel.probe(unit, p, stats);
    stats.add_scan(located.elapsed());
    stats.results += u64::from(found);
    found
}

/// The transpose of a walk record: the distinct units in ascending order,
/// each with the requests whose runs hold it (ascending), built by one
/// counting sort over the recorded span, or by sorting the visits when
/// they are sparse over it.
#[derive(Debug, Default)]
pub(crate) struct UnitGroups {
    units: Vec<u32>,
    /// Unit `g`'s requests are `requests[offsets[g]..offsets[g + 1]]`.
    offsets: Vec<u32>,
    requests: Vec<u32>,
}

impl UnitGroups {
    pub(crate) fn of(record: &WalkRecord) -> Self {
        let Some((lo, hi)) = record.unit_span() else {
            return Self::default();
        };
        let span = (hi - lo) as usize + 1;
        if record.units.len() * 16 < span {
            return Self::sorted(record);
        }
        // Requests per unit, then each occupied slot's first position.
        let mut slots = vec![0u32; span];
        for &unit in &record.units {
            slots[(unit - lo) as usize] += 1;
        }
        let mut groups = Self {
            offsets: vec![0],
            requests: vec![0; record.units.len()],
            ..Self::default()
        };
        let mut next = 0u32;
        for (at, slot) in slots.iter_mut().enumerate() {
            if *slot > 0 {
                groups.units.push(lo + at as u32);
                let count = std::mem::replace(slot, next);
                next += count;
                groups.offsets.push(next);
            }
        }
        for qi in 0..record.requests() {
            for &unit in record.run(qi) {
                let slot = &mut slots[(unit - lo) as usize];
                groups.requests[*slot as usize] = qi as u32;
                *slot += 1;
            }
        }
        groups
    }

    /// [`UnitGroups::of`] for visits sparse over their unit span (a few
    /// probes, or scattered ranges, over a large index): the `(unit,
    /// request)` pairs sorted, so the work follows the visits, not the
    /// span.
    fn sorted(record: &WalkRecord) -> Self {
        let mut pairs = Vec::with_capacity(record.units.len());
        for qi in 0..record.requests() {
            pairs.extend(record.run(qi).iter().map(|&unit| (unit, qi as u32)));
        }
        pairs.sort_unstable();
        let mut groups = Self {
            units: Vec::with_capacity(pairs.len()),
            offsets: Vec::with_capacity(pairs.len() + 1),
            requests: Vec::with_capacity(pairs.len()),
        };
        for (unit, qi) in pairs {
            if groups.units.last() != Some(&unit) {
                groups.units.push(unit);
                groups.offsets.push(groups.requests.len() as u32);
            }
            groups.requests.push(qi);
        }
        groups.offsets.push(groups.requests.len() as u32);
        groups
    }

    /// Number of distinct units.
    pub(crate) fn len(&self) -> usize {
        self.units.len()
    }

    /// The requests reading distinct unit `g`.
    fn requests_of(&self, g: usize) -> &[u32] {
        &self.requests[self.offsets[g] as usize..self.offsets[g + 1] as usize]
    }
}

/// Cuts the distinct-unit list into `min(shards, units)` contiguous chunks
/// of roughly equal work, a unit weighing one fetch plus one scan per
/// request reading it. Empty when there are no units.
pub(crate) fn plan_unit_chunks(groups: &UnitGroups, shards: usize) -> Vec<Range<usize>> {
    let units = groups.len();
    if units == 0 {
        return Vec::new();
    }
    let shards = shards.clamp(1, units);
    let total = units + groups.requests.len();
    let mut cuts = vec![0usize];
    for g in 1..units {
        let chunk = cuts.len();
        if chunk == shards {
            break;
        }
        // Work before unit `g`; cut once the chunk has its share, or when
        // every remaining chunk needs one of the remaining units.
        let before = g + groups.offsets[g] as usize;
        if before * shards >= total * chunk || units - g <= shards - chunk {
            cuts.push(g);
        }
    }
    cuts.push(units);
    cuts.windows(2).map(|pair| pair[0]..pair[1]).collect()
}

/// Reads the distinct units `span` for all of their requests into
/// `response`, a zeroed one: one shared visit per unit, what `read`
/// charges per request. Returns the partial response holding just that
/// span's work.
pub(crate) fn scan_units(
    record: &WalkRecord,
    groups: &UnitGroups,
    span: Range<usize>,
    mut response: RangeBatchResponse,
    read: &ReadUnit<'_>,
) -> RangeBatchResponse {
    let start = Instant::now();
    for g in span {
        let unit = record.handle(groups.units[g]);
        response.shared.pages_scanned += 1;
        for &qi in groups.requests_of(g) {
            let qi = qi as usize;
            read(
                unit,
                qi,
                &mut response.outputs[qi],
                &mut response.per_query[qi],
            );
        }
    }
    response.shared.scan_ns += start.elapsed().as_nanos() as u64;
    response
}

/// Reads each of `spans` on its own scoped worker thread (the first on the
/// calling thread), returning the partial responses in span order however
/// the workers were scheduled.
pub(crate) fn scan_spans_threaded(
    record: &WalkRecord,
    groups: &UnitGroups,
    spans: &[Range<usize>],
    zeroed: &RangeBatchResponse,
    read: &ReadUnit<'_>,
) -> Vec<RangeBatchResponse> {
    let Some((first, rest)) = spans.split_first() else {
        return Vec::new();
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = rest
            .iter()
            .map(|span| {
                let zeroed = zeroed.clone();
                scope.spawn(move || scan_units(record, groups, span.clone(), zeroed, read))
            })
            .collect();
        let mut partials = vec![scan_units(
            record,
            groups,
            first.clone(),
            zeroed.clone(),
            read,
        )];
        partials.extend(handles.into_iter().map(|handle| {
            // Re-raise a worker's panic with its original payload, so a
            // kernel panic on a worker thread reaches the engine's
            // isolation boundary (catch_execution_panic) with its message
            // intact instead of being masked by a join error.
            handle
                .join()
                .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
        }));
        partials
    })
}

/// Merges the partial responses of ascending unit spans, at least one,
/// into one [`RangeBatchResponse`], folding in the walk's per-request work
/// and wall-clock. Point outputs concatenate in span order, which keeps
/// each request's units ascending and so its matches in solo order; counts
/// and counters sum.
pub(crate) fn merge_partials(
    record: &WalkRecord,
    partials: impl IntoIterator<Item = RangeBatchResponse>,
) -> RangeBatchResponse {
    let mut partials = partials.into_iter();
    let mut merged = partials
        .next()
        .expect("one partial a span, one span at least");
    for partial in partials {
        for (into, from) in merged.outputs.iter_mut().zip(partial.outputs) {
            match (into, from) {
                (RangeBatchOutput::Points(all), RangeBatchOutput::Points(part)) => {
                    all.extend(part);
                }
                (RangeBatchOutput::Count(all), RangeBatchOutput::Count(part)) => {
                    *all += part;
                }
                _ => unreachable!("partial outputs are shaped by the same requests"),
            }
        }
        for (into, from) in merged.per_query.iter_mut().zip(&partial.per_query) {
            into.merge(from);
        }
        merged.shared.merge(&partial.shared);
    }
    for (into, walked) in merged.per_query.iter_mut().zip(&record.per_query) {
        into.merge(walked);
    }
    merged.shared.projection_ns += record.walk_ns;
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A record of `runs`, one run per request.
    fn record(runs: &[&[u32]]) -> WalkRecord {
        let mut record = WalkRecord::new(runs.len());
        for run in runs {
            record.units.extend_from_slice(run);
            record.end_run();
        }
        record
    }

    #[test]
    fn footprint_counts_visits_and_distinct_units() {
        let mut walked = record(&[&[0, 1, 2, 3], &[2, 3, 4, 5], &[130]]);
        walked.points = 140;
        walked.per_query[0].bbs_checked = 5;
        walked.per_query[2].bbs_checked = 1;
        let stats = walked.footprint();
        assert_eq!(stats.requests, 3);
        assert_eq!(stats.checks, 6);
        assert_eq!(stats.page_visits, 9);
        assert_eq!(stats.distinct_pages, 7);
        assert_eq!(stats.points, 140);
        assert_eq!(WalkRecord::new(0).footprint(), RangeBatchStats::default());
    }

    /// Dense runs take the counting sort, runs sparse over their span
    /// the pair sort; both transpose alike.
    #[test]
    fn groups_transpose_the_runs() {
        for far in [5, 5_000] {
            let walked = record(&[&[3, far], &[], &[1, 3], &[far]]);
            let groups = UnitGroups::of(&walked);
            assert_eq!(groups.units, [1, 3, far]);
            assert_eq!(groups.requests_of(0), [2]);
            assert_eq!(groups.requests_of(1), [0, 2]);
            assert_eq!(groups.requests_of(2), [0, 3]);
        }
        assert_eq!(UnitGroups::of(&record(&[&[], &[]])).len(), 0);
    }

    /// `units` distinct units, unit `g` read by `readers[g]` requests.
    fn groups(readers: &[u32]) -> UnitGroups {
        let mut offsets = vec![0];
        for &n in readers {
            offsets.push(offsets.last().unwrap() + n);
        }
        UnitGroups {
            units: (0..readers.len() as u32).collect(),
            requests: vec![0; *offsets.last().unwrap() as usize],
            offsets,
        }
    }

    /// Asserts `chunks` partition `0..units` into non-empty ranges.
    fn assert_partition(chunks: &[Range<usize>], units: usize) {
        assert_eq!(chunks.first().unwrap().start, 0);
        assert_eq!(chunks.last().unwrap().end, units);
        for pair in chunks.windows(2) {
            assert_eq!(pair[0].end, pair[1].start, "gap or overlap in {chunks:?}");
        }
        assert!(chunks.iter().all(|chunk| !chunk.is_empty()), "{chunks:?}");
    }

    #[test]
    fn empty_batch_has_no_shards() {
        assert!(plan_unit_chunks(&groups(&[]), 4).is_empty());
    }

    #[test]
    fn single_shard_covers_the_hull() {
        assert_eq!(plan_unit_chunks(&groups(&[3, 1, 4]), 1), vec![0..3]);
    }

    #[test]
    fn shards_partition_the_hull_without_gaps() {
        let readers = [1, 5, 2, 2, 9, 1, 1, 3, 4, 1];
        for shards in [2, 3, 4, 8] {
            let chunks = plan_unit_chunks(&groups(&readers), shards);
            assert_eq!(chunks.len(), shards, "{chunks:?}");
            assert_partition(&chunks, readers.len());
        }
    }

    #[test]
    fn shards_clamp_to_the_span() {
        // One unit cannot feed more than one chunk, however many requests
        // read it.
        assert_eq!(plan_unit_chunks(&groups(&[50]), 16), vec![0..1]);
        let chunks = plan_unit_chunks(&groups(&[1, 1, 1]), 16);
        assert_eq!(chunks, vec![0..1, 1..2, 2..3]);
    }

    #[test]
    fn balanced_cuts_split_the_hot_span() {
        // Ten units read by ten requests each, then ninety read by one: a
        // balanced two-way cut falls well before the midpoint unit 50.
        let mut readers = vec![10; 10];
        readers.extend([1; 90]);
        let chunks = plan_unit_chunks(&groups(&readers), 2);
        assert_partition(&chunks, 100);
        assert!(
            chunks[0].end <= 30,
            "cut at {} ignores the hot span",
            chunks[0].end
        );
    }

    #[test]
    fn weighted_planner_handles_degenerate_inputs() {
        // Units nobody reads still weigh their fetch, so the cuts advance.
        let chunks = plan_unit_chunks(&groups(&[0, 0, 0, 0]), 2);
        assert_eq!(chunks, vec![0..2, 2..4]);
        // A zero shard count plans one chunk.
        assert_eq!(plan_unit_chunks(&groups(&[2, 2]), 0), vec![0..2]);
    }

    #[test]
    fn merge_concatenates_points_and_sums_counts() {
        let mut walked = record(&[&[0, 1], &[0, 1]]);
        walked.walk_ns = 5;
        for stats in &mut walked.per_query {
            stats.nodes_visited = 2;
        }
        let partial = |points: Vec<Point>, count: u64, pages: u64| RangeBatchResponse {
            outputs: vec![
                RangeBatchOutput::Points(points),
                RangeBatchOutput::Count(count),
            ],
            per_query: vec![
                ExecStats {
                    points_scanned: 4,
                    ..Default::default()
                };
                2
            ],
            shared: ExecStats {
                pages_scanned: pages,
                ..Default::default()
            },
        };
        let a = Point::new(0.1, 0.1);
        let b = Point::new(0.9, 0.9);
        let merged = merge_partials(
            &walked,
            vec![partial(vec![a], 2, 1), partial(vec![b], 3, 1)],
        );
        assert_eq!(merged.outputs[0], RangeBatchOutput::Points(vec![a, b]));
        assert_eq!(merged.outputs[1], RangeBatchOutput::Count(5));
        assert_eq!(merged.per_query[0].nodes_visited, 2);
        assert_eq!(merged.per_query[0].points_scanned, 8);
        assert_eq!(merged.shared.pages_scanned, 2);
        assert_eq!(merged.shared.projection_ns, 5);
    }
}
