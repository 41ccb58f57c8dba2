//! `batch_fused` and `batch_scattered`: one caller handing whole batches to
//! `QueryEngine::execute_batch` under the default `BatchStrategy::Auto`.

use std::cell::Cell;
use std::time::{Duration, Instant};

use wazi_core::{Query, QueryEngine};

use crate::harness::{Built, Counters, Trial, Workload};
use crate::inputs::{self, Common, Digest};
use crate::oracle::{self, Scan};
use crate::sys;
use crate::trace::Recorder;

/// Leading batches whose solo answers the linear scan checks.
const SCANNED_BATCHES: usize = 4;

/// Slices of distinct batches `batch_fused` rotates through, one per trial.
/// Its p99 is the cost of the few heaviest batches; repeating one slice of
/// 150 would make that the cost of *the* heaviest, which is a property of
/// the seed rather than of the program.
const FUSED_SLICES: usize = 3;

pub struct Batches {
    batches: Vec<Vec<Query>>,
    /// Fingerprints of the solo answers: a hot-spot batch materializes
    /// megabytes of points, too much to keep for every batch.
    expected: Vec<Vec<u64>>,
    /// Batches per trial; trial `n` runs slice `n` of the list, cyclically.
    per_trial: usize,
    trials_run: Cell<usize>,
}

impl Batches {
    /// Hot-spot batches of 128 mixed plans: ranges overlap, so all three
    /// fused kernels and the kNN ring sweep do most of the work.
    pub fn fused(common: &Common, scale: f64) -> Self {
        let per_trial = (150.0 * scale).ceil() as usize;
        let batches = inputs::fused_batches(FUSED_SLICES * per_trial, common.seed.wrapping_add(10));
        Self::new(batches, per_trial)
    }

    /// Batches of 64 barely-overlapping range counts: fusion cannot win, so
    /// the time is Auto's planning plus per-query descent.
    pub fn scattered(common: &Common, scale: f64) -> Self {
        let per_trial = (1_600.0 * scale).ceil() as usize;
        let batches = inputs::scattered_batches(per_trial, common.seed.wrapping_add(20));
        Self::new(batches, per_trial)
    }

    fn new(batches: Vec<Vec<Query>>, per_trial: usize) -> Self {
        Batches {
            batches,
            expected: Vec::new(),
            per_trial,
            trials_run: Cell::new(0),
        }
    }
}

impl Workload for Batches {
    type State = Built;

    fn load(&self) -> (usize, usize) {
        (1, 1)
    }

    fn digest(&self, digest: &mut Digest) {
        self.batches.iter().for_each(|batch| digest.queries(batch));
    }

    fn setup(&self, common: &Common) -> Built {
        Built::new(common)
    }

    fn built<'s>(&self, state: &'s Built) -> &'s Built {
        state
    }

    fn prepare(&mut self, state: &Built, common: &Common) -> u64 {
        let index = state.index.as_ref();
        let scan = Scan::new(&common.points);
        let mut disagreements = 0;
        self.expected.clear();
        for (i, batch) in self.batches.iter().enumerate() {
            let answers = oracle::solo_answers(index, batch);
            if i < SCANNED_BATCHES {
                disagreements += oracle::sampled_disagreements(&scan, batch, &answers);
            }
            self.expected
                .push(answers.iter().map(oracle::fingerprint).collect());
        }
        disagreements
    }

    fn trial(&self, state: &mut Built, traced: bool, counters: &mut Counters) -> Trial {
        let engine = QueryEngine::new(state.index.as_ref());
        let mut trial = Trial::default();
        trial.calls_ns.reserve(self.per_trial);
        let mut rec = traced.then(|| Recorder::new(Instant::now(), 4 * self.per_trial));
        let slice = self.trials_run.replace(self.trials_run.get() + 1) * self.per_trial;
        let ops = (slice..slice + self.per_trial).map(|op| op % self.batches.len());
        for (op, batch, expected) in ops.map(|op| (op, &self.batches[op], &self.expected[op])) {
            if traced {
                sys::arm();
            }
            let start = Instant::now();
            let report = engine.execute_batch(batch);
            let end = Instant::now();
            let (allocs, bytes) = sys::disarm();
            trial.allocs = (trial.allocs.0 + allocs, trial.allocs.1 + bytes);
            // One caller, so the trial's wall time is the calls' time: each
            // answer is checked and dropped between calls, off the clock.
            trial.wall += end - start;
            trial.calls_ns.push((end - start).as_nanos() as u64);
            trial.ops += batch.len() as u64;
            counters.queries += batch.len() as f64;
            let Ok(report) = report else {
                trial.failed += batch.len() as u64;
                continue;
            };
            let answers = report
                .reports
                .iter()
                .map(|r| oracle::fingerprint(&r.output));
            trial.failed += answers.zip(expected).filter(|(a, e)| a != *e).count() as u64;
            trial.failed += batch.len().abs_diff(report.len()) as u64;
            let work = report.merged_stats();
            counters.add_exec(&work, 1.0);
            counters.shared_pages += report.shared_stats.pages_scanned as f64;
            counters.fused_queries += report.total_fused() as f64;
            counters.shards += report.shards_used as f64;
            counters.engine_batches += 1.0;
            if let Some(rec) = rec.as_mut() {
                let root = rec.root(op as u32, 0, start, end);
                let call = rec.measured(root, "core.engine.batch", start, end);
                rec.filled(call, "core.zindex.projection", work.projection_ns);
                rec.filled(call, "storage.scan", work.scan_ns);
            }
        }
        debug_assert!(trial.wall > Duration::ZERO);
        trial.spans = rec.map_or_else(Vec::new, |rec| rec.spans);
        trial
    }
}
