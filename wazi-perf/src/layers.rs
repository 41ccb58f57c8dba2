//! The per-layer metrics a traced run derives from its own trials: span
//! self-time shares, and ratios of the public counters.

use crate::harness::{Run, Trial};
use crate::spec::SPAN_SHARES;
use crate::stats;
use crate::trace;

/// `part / whole`, or 0 when the workload never touched the layer.
fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

pub fn from_run(run: &Run) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();

    // Spans of the traced trials.
    let (mut spans, mut roots, mut op_wall_ns) = (0usize, 0usize, 0u64);
    let mut self_ns = std::collections::BTreeMap::new();
    for trial in &run.traced {
        let (by_name, wall_ns) = trace::self_times(&trial.spans);
        for (name, ns) in by_name {
            *self_ns.entry(name).or_insert(0u64) += ns;
        }
        op_wall_ns += wall_ns;
        spans += trial.spans.len();
        roots += trial.spans.iter().filter(|s| s.parent.is_none()).count();
    }
    for (span, metric) in SPAN_SHARES {
        let ns = self_ns.get(span).copied().unwrap_or(0);
        out.push((metric, share(ns as f64, op_wall_ns as f64)));
    }
    out.push((
        "bench.op_mean_us",
        share(op_wall_ns as f64 / 1e3, roots as f64),
    ));
    out.push(("bench.spans_per_op", share(spans as f64, roots as f64)));

    // Public counters over every trial of the run.
    let c = &run.counters;
    let wall_ns: f64 = run
        .plain
        .iter()
        .chain(&run.traced)
        .map(|t| t.wall.as_nanos() as f64)
        .sum();
    out.extend([
        (
            "core.snapshot.writer_busy_share",
            share(c.writer_busy_ns, wall_ns),
        ),
        ("storage.pages_per_op", share(c.pages, c.queries)),
        ("storage.points_per_op", share(c.points, c.queries)),
        ("storage.useful_point_share", share(c.results, c.points)),
        (
            "core.zindex.bbs_checked_per_op",
            share(c.bbs_checked, c.queries),
        ),
        (
            "core.zindex.leaves_skipped_per_op",
            share(c.leaves_skipped, c.queries),
        ),
        (
            "core.zindex.nodes_visited_per_op",
            share(c.nodes_visited, c.queries),
        ),
        (
            "core.engine.fused_query_share",
            share(c.fused_queries, c.queries),
        ),
        (
            "core.engine.pages_fused_share",
            share(c.shared_pages, c.pages),
        ),
        (
            "core.engine.shards_used_mean",
            share(c.shards, c.engine_batches),
        ),
        (
            "service.mean_batch_size",
            share(c.service_completed, c.service_batches),
        ),
        ("service.max_batch_size", c.max_batch),
        (
            "service.capacity_cut_share",
            share(c.capacity_cuts, c.service_batches),
        ),
        (
            "service.timer_cut_share",
            share(c.timer_cuts, c.service_batches),
        ),
        ("service.lost_tickets", c.lost_tickets),
        ("service.shed", c.shed),
        ("service.worker_restarts", c.worker_restarts),
        ("net.connections_leaked", c.connections_leaked),
        ("core.snapshot.live_epochs_max", c.live_epochs_max),
        ("core.snapshot.rebuild_fallbacks", c.rebuild_fallbacks),
        ("core.snapshot.epochs_published", c.epochs_published),
    ]);

    // The process, over the traced trials.
    let traced = |of: fn(&Trial) -> u64| run.traced.iter().map(of).sum::<u64>() as f64;
    let traced_ops = traced(|t| t.ops);
    let threads = run.plain.iter().chain(&run.traced).map(|t| t.threads_peak);
    out.extend([
        ("proc.cpu_us_per_op", run.cpu_us_per_op()),
        (
            "proc.allocs_per_op",
            share(traced(|t| t.allocs.0), traced_ops),
        ),
        (
            "proc.alloc_bytes_per_op",
            share(traced(|t| t.allocs.1), traced_ops),
        ),
        (
            "proc.ctx_switches_per_op",
            share(traced(|t| t.context_switches), traced_ops),
        ),
        (
            "proc.threads_peak",
            threads.max().unwrap_or(0).max(1) as f64,
        ),
    ]);

    // The harness itself.
    let rates: Vec<f64> = run.plain.iter().map(Trial::ops_per_s).collect();
    let overhead = 1.0 - Run::ops_per_s(&run.traced) / stats::median(&rates);
    out.extend([
        ("bench.trace_overhead_share", overhead),
        ("bench.trial_spread_share", stats::spread_share(&rates)),
    ]);
    out
}
