//! `range_scan` and `point_probe`: one caller straight into the index.

use std::time::Instant;

use wazi_core::{Query, QueryOutput, SpatialIndex};
use wazi_geom::{Point, Rect};
use wazi_storage::ExecStats;

use crate::harness::{Built, Counters, Trial, Workload};
use crate::inputs::{self, Common, Digest};
use crate::oracle::{self, Scan};
use crate::sys;
use crate::trace::Recorder;

/// Probes per timed call of `point_probe`: one probe is too short to time.
const PROBE_CHUNK: usize = 32;

/// Records one direct call as `bench.op` → `core.zindex.call` → the two
/// phases the call's [`ExecStats`] report.
fn record_call(rec: &mut Recorder, op: usize, start: Instant, end: Instant, stats: &ExecStats) {
    let root = rec.root(op as u32, 0, start, end);
    let call = rec.measured(root, "core.zindex.call", start, end);
    rec.filled(call, "core.zindex.projection", stats.projection_ns);
    rec.filled(call, "storage.scan", stats.scan_ns);
}

/// One trial of a single caller: `call` answers each of `items`, and every
/// `chunk` consecutive items are one timed call.
fn direct_trial<Q, A: PartialEq>(
    (items, chunk): (&[Q], usize),
    expected: &[A],
    traced: bool,
    counters: &mut Counters,
    call: impl Fn(&Q, &mut ExecStats) -> A,
) -> Trial {
    let calls = items.len().div_ceil(chunk);
    let mut answers = Vec::with_capacity(items.len());
    let mut calls_ns = Vec::with_capacity(calls);
    let mut total = ExecStats::default();
    let mut rec = traced.then(|| Recorder::new(Instant::now(), 4 * calls));
    if traced {
        sys::arm();
    }
    let started = Instant::now();
    for (op, chunk_items) in items.chunks(chunk).enumerate() {
        let mut stats = ExecStats::default();
        let start = Instant::now();
        for item in chunk_items {
            answers.push(call(item, &mut stats));
        }
        let end = Instant::now();
        calls_ns.push((end - start).as_nanos() as u64 / chunk as u64);
        total.merge(&stats);
        if let Some(rec) = rec.as_mut() {
            record_call(rec, op, start, end, &stats);
        }
    }
    let wall = started.elapsed();
    let allocs = sys::disarm();

    counters.queries += items.len() as f64;
    counters.add_exec(&total, 1.0);
    let wrong = answers.iter().zip(expected).filter(|(a, e)| a != e);
    Trial {
        wall,
        ops: items.len() as u64,
        calls_ns,
        failed: wrong.count() as u64,
        spans: rec.map_or_else(Vec::new, |rec| rec.spans),
        allocs,
        ..Trial::default()
    }
}

/// Direct `SpatialIndex::range_count`, the paper's four selectivities
/// interleaved in equal shares.
pub struct RangeScan {
    rects: Vec<Rect>,
    expected: Vec<u64>,
}

impl RangeScan {
    pub fn new(common: &Common, scale: f64) -> Self {
        let per_selectivity = (4_000.0 * scale).ceil() as usize;
        RangeScan {
            rects: inputs::four_selectivities(per_selectivity, common.seed.wrapping_add(2)),
            expected: Vec::new(),
        }
    }
}

impl Workload for RangeScan {
    type State = Built;

    fn load(&self) -> (usize, usize) {
        (1, 1)
    }

    fn digest(&self, digest: &mut Digest) {
        self.rects.iter().for_each(|r| digest.rect(r));
    }

    fn setup(&self, common: &Common) -> Built {
        Built::new(common)
    }

    fn built<'s>(&self, state: &'s Built) -> &'s Built {
        state
    }

    fn prepare(&mut self, state: &Built, common: &Common) -> u64 {
        let queries: Vec<Query> = self.rects.iter().map(|r| Query::range_count(*r)).collect();
        let answers = oracle::solo_answers(state.index.as_ref(), &queries);
        self.expected = answers.iter().map(QueryOutput::result_count).collect();
        oracle::sampled_disagreements(&Scan::new(&common.points), &queries, &answers)
    }

    fn trial(&self, state: &mut Built, traced: bool, counters: &mut Counters) -> Trial {
        let index: &dyn SpatialIndex = state.index.as_ref();
        let call = |rect: &Rect, stats: &mut ExecStats| index.range_count(rect, stats);
        direct_trial((&self.rects, 1), &self.expected, traced, counters, call)
    }
}

/// Direct `SpatialIndex::point_query`, half hits and half uniform misses.
pub struct PointProbe {
    probes: Vec<Point>,
    expected: Vec<bool>,
}

impl PointProbe {
    pub fn new(common: &Common, scale: f64) -> Self {
        let chunks = (36_000.0 * scale).ceil() as usize;
        PointProbe {
            probes: inputs::point_probes(&common.points, chunks * PROBE_CHUNK, common.seed),
            expected: Vec::new(),
        }
    }
}

impl Workload for PointProbe {
    type State = Built;

    fn load(&self) -> (usize, usize) {
        (1, 1)
    }

    fn digest(&self, digest: &mut Digest) {
        digest.points(&self.probes);
    }

    fn setup(&self, common: &Common) -> Built {
        Built::new(common)
    }

    fn built<'s>(&self, state: &'s Built) -> &'s Built {
        state
    }

    fn prepare(&mut self, state: &Built, common: &Common) -> u64 {
        // Solo execution of a probe *is* `point_query`; the independent
        // oracle is the scan's hash set, and it covers every probe.
        let scan = Scan::new(&common.points);
        let mut stats = ExecStats::default();
        self.expected = self.probes.iter().map(|p| scan.contains(p, &[])).collect();
        let solo = self
            .probes
            .iter()
            .map(|p| state.index.point_query(p, &mut stats));
        solo.zip(&self.expected).filter(|(a, e)| a != *e).count() as u64
    }

    fn trial(&self, state: &mut Built, traced: bool, counters: &mut Counters) -> Trial {
        let index: &dyn SpatialIndex = state.index.as_ref();
        let call = |probe: &Point, stats: &mut ExecStats| index.point_query(probe, stats);
        let probes = (self.probes.as_slice(), PROBE_CHUNK);
        direct_trial(probes, &self.expected, traced, counters, call)
    }
}
