//! What every workload shares: the set-up / warm-up / timed-trials sequence,
//! the counters a trial reports, and how a run turns into metrics.

use std::sync::Arc;
use std::time::{Duration, Instant};

use wazi_core::{SpatialIndex, ZIndex};
use wazi_storage::ExecStats;

use crate::inputs::{Common, Digest};
use crate::trace::Span;
use crate::{host, probes, stats, sys};

/// Fewest untraced timed trials, however short `--seconds` is; a traced run
/// stops at this many, then adds [`SPAN_TRIALS`] traced ones.
const MIN_TRIALS: usize = 3;
const SPAN_TRIALS: usize = 2;
/// Times the set-up is repeated in an untraced run; `setup_s` is the median.
const SETUPS: usize = 3;

/// Generator threads of the `serve_*` workloads: two, or one on one core.
pub fn generator_threads() -> usize {
    host::parallelism().min(2)
}

/// The WaZI index every workload serves, with its construction time.
pub struct Built {
    pub index: Arc<ZIndex>,
    pub build_s: f64,
}

impl Built {
    pub fn new(common: &Common) -> Self {
        let points = common.points.clone();
        let start = Instant::now();
        let index = Arc::new(ZIndex::build_wazi(points, &common.train));
        Built {
            index,
            build_s: start.elapsed().as_secs_f64(),
        }
    }
}

/// Public counters gathered over a run's trials: sums, except the two
/// maxima.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counters {
    /// Queries answered (an op may be a whole batch).
    pub queries: f64,
    pub pages: f64,
    /// Pages fetched once on behalf of several queries.
    pub shared_pages: f64,
    pub points: f64,
    pub results: f64,
    pub bbs_checked: f64,
    pub leaves_skipped: f64,
    pub nodes_visited: f64,
    /// Queries a fused kernel executed.
    pub fused_queries: f64,
    /// Sweep shards used, summed over the engine batches observed.
    pub shards: f64,
    pub engine_batches: f64,
    pub service_completed: f64,
    pub service_batches: f64,
    pub capacity_cuts: f64,
    pub timer_cuts: f64,
    pub shed: f64,
    pub worker_restarts: f64,
    /// Submissions that were accepted and never answered.
    pub lost_tickets: f64,
    pub max_batch: f64,
    /// Connections opened and not drained by shutdown.
    pub connections_leaked: f64,
    pub writer_busy_ns: f64,
    pub epochs_published: f64,
    pub rebuild_fallbacks: f64,
    pub live_epochs_max: f64,
}

impl Counters {
    /// Adds `weight` × the work counters of `stats`.
    pub fn add_exec(&mut self, stats: &ExecStats, weight: f64) {
        self.pages += stats.pages_scanned as f64 * weight;
        self.points += stats.points_scanned as f64 * weight;
        self.results += stats.results as f64 * weight;
        self.bbs_checked += stats.bbs_checked as f64 * weight;
        self.leaves_skipped += stats.leaves_skipped as f64 * weight;
        self.nodes_visited += stats.nodes_visited as f64 * weight;
    }
}

/// What one trial measured. Answers are compared after `wall` stopped.
#[derive(Default)]
pub struct Trial {
    pub wall: Duration,
    /// Operations completed: queries, plus write ops on `serve_rw`.
    pub ops: u64,
    /// Latency of every call, in nanoseconds.
    pub calls_ns: Vec<u64>,
    /// User + system CPU seconds the process used during the trial.
    pub cpu_s: f64,
    /// Errors, rejections and answers that differ from the oracle's.
    pub failed: u64,
    /// Most threads alive at once, when the trial sampled it.
    pub threads_peak: u64,
    /// Context switches during the trial (traced only). A workload reports
    /// those of its generator threads, which end with the trial; the driver
    /// adds those of the threads that outlive it.
    pub context_switches: u64,
    /// The trial's spans; empty unless it was traced.
    pub spans: Vec<Span>,
    /// Allocations and bytes allocated while the clock ran (traced only).
    pub allocs: (u64, u64),
}

impl Trial {
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.wall.as_secs_f64()
    }
}

/// One of the eight workloads.
pub trait Workload {
    /// What set-up builds and the trials run against.
    type State;

    /// Generator threads and requests in flight per thread.
    fn load(&self) -> (usize, usize);

    /// Feeds the workload's own inputs (beyond the common ones) to `digest`.
    fn digest(&self, digest: &mut Digest);

    /// Index build(s), service and server start, connects: `setup_s`.
    fn setup(&self, common: &Common) -> Self::State;

    fn built<'s>(&self, state: &'s Self::State) -> &'s Built;

    /// `size_bytes() / len()` of the index served last.
    fn index_bytes_per_point(&self, state: &Self::State) -> f64 {
        let index = &self.built(state).index;
        index.size_bytes() as f64 / index.len() as f64
    }

    /// Computes the oracle's answers, untimed. Returns how many of them the
    /// linear scan disagrees with.
    fn prepare(&mut self, state: &Self::State, common: &Common) -> u64;

    /// One trial of the fixed operation count, adding the public counters it
    /// read to `counters`. A traced trial records spans and arms the counting
    /// allocator while its clock runs, after its own buffers are allocated.
    fn trial(&self, state: &mut Self::State, traced: bool, counters: &mut Counters) -> Trial;

    /// Shuts down what set-up started, adding the counters only shutdown
    /// can give.
    fn finish(&self, _state: Self::State, _counters: &mut Counters) {}
}

/// Everything a run measured, before it is named.
pub struct Run {
    pub setup_s: f64,
    pub index_bytes_per_point: f64,
    /// `VmHWM` once the first [`MIN_TRIALS`] timed trials are done: a fixed
    /// amount of work, however many more trials `--seconds` allows.
    pub peak_rss_mib: f64,
    pub digest: u64,
    /// Untraced timed trials.
    pub plain: Vec<Trial>,
    /// Traced timed trials (traced run only).
    pub traced: Vec<Trial>,
    /// Oracle disagreements found before any trial.
    pub oracle_failed: u64,
    /// Public counters over every timed trial, and shutdown's.
    pub counters: Counters,
    /// The layer probes (traced run only).
    pub probes: Vec<(&'static str, f64)>,
}

impl Run {
    fn all(&self) -> impl Iterator<Item = &Trial> {
        self.plain.iter().chain(&self.traced)
    }

    pub fn attempted(&self) -> u64 {
        self.all().map(|t| t.ops).sum()
    }

    pub fn failed(&self) -> u64 {
        self.oracle_failed + self.all().map(|t| t.failed).sum::<u64>()
    }

    /// Median over trials of ops ÷ wall.
    pub fn ops_per_s(trials: &[Trial]) -> f64 {
        let rates: Vec<f64> = trials.iter().map(Trial::ops_per_s).collect();
        stats::median(&rates)
    }

    /// Median over the untraced trials of CPU µs ÷ ops (traced run only: the
    /// driver times CPU around those trials in every run, but on this host
    /// the figure swings too far with the hypervisor to be bounded).
    pub fn cpu_us_per_op(&self) -> f64 {
        let costs: Vec<f64> = self
            .plain
            .iter()
            .map(|t| t.cpu_s * 1e6 / t.ops as f64)
            .collect();
        stats::median(&costs)
    }

    /// `(p50, p99)` of call latency in µs: taken over each group of
    /// consecutive untraced trials that pools enough calls for a p99, then
    /// the median over the groups — so a stretch of interference on the
    /// host moves one group, not the result.
    pub fn latency_us(&self) -> (f64, f64) {
        let calls: Vec<usize> = self.plain.iter().map(|t| t.calls_ns.len()).collect();
        let (mut p50s, mut p99s) = (Vec::new(), Vec::new());
        for group in stats::call_groups(&calls) {
            let trials = &self.plain[group];
            let mut pooled: Vec<u64> = trials.iter().flat_map(|t| &t.calls_ns).copied().collect();
            pooled.sort_unstable();
            let at = |p| stats::percentile(&pooled, p).expect("a group pools enough calls");
            p50s.push(at(0.50) as f64 / 1e3);
            p99s.push(at(0.99) as f64 / 1e3);
        }
        (stats::median(&p50s), stats::median(&p99s))
    }
}

/// Runs one workload start to finish.
pub fn drive<W: Workload>(workload: &mut W, common: &Common, seconds: f64, traced: bool) -> Run {
    let mut digest = Digest::of_common(common);
    workload.digest(&mut digest);

    // Set-up, repeated so that `setup_s` is a median; the last one is kept.
    let mut setups = Vec::new();
    let mut state = None;
    for _ in 0..if traced { 1 } else { SETUPS } {
        drop(state.take());
        let start = Instant::now();
        state = Some(workload.setup(common));
        setups.push(start.elapsed().as_secs_f64());
    }
    let mut state = state.expect("set up at least once");
    let oracle_failed = workload.prepare(&state, common);

    // Warm-up: caches fill, the service's window adapts, lazy set-up ends.
    let warm = workload.trial(&mut state, false, &mut Counters::default());

    let mut run = Run {
        setup_s: stats::median(&setups),
        index_bytes_per_point: 0.0,
        peak_rss_mib: 0.0,
        digest: digest.value(),
        plain: Vec::new(),
        traced: Vec::new(),
        oracle_failed: oracle_failed + warm.failed,
        counters: Counters::default(),
        probes: Vec::new(),
    };

    let started = Instant::now();
    loop {
        let done = run.plain.len();
        let calls: usize = run.plain.iter().map(|t| t.calls_ns.len()).sum();
        let timed_out = calls >= stats::MIN_CALLS && started.elapsed().as_secs_f64() >= seconds;
        if done >= MIN_TRIALS && (traced || timed_out) {
            break;
        }
        let cpu = sys::cpu_seconds();
        let mut trial = workload.trial(&mut state, false, &mut run.counters);
        trial.cpu_s = sys::cpu_seconds() - cpu;
        run.plain.push(trial);
        if run.plain.len() == MIN_TRIALS {
            run.peak_rss_mib = host::peak_rss_mib();
        }
    }
    if traced {
        for _ in 0..SPAN_TRIALS {
            let switches = host::context_switches();
            let mut trial = workload.trial(&mut state, true, &mut run.counters);
            trial.context_switches += host::switches_between(&switches, &host::context_switches());
            run.traced.push(trial);
        }
        run.probes = probes::run(common, workload.built(&state));
    }
    run.index_bytes_per_point = workload.index_bytes_per_point(&state);
    workload.finish(state, &mut run.counters);
    run
}
