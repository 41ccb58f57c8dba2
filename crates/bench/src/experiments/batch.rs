//! Batched query execution: the engine experiment beyond the paper.
//!
//! The paper evaluates queries one at a time; production workloads arrive
//! in batches. This experiment drives every index through the typed query
//! engine's batch executor and compares four schedules: the sequential
//! loop, the fused strategy (a batch's range plans are walked once through
//! the index's batched kernel, and pages relevant to several overlapping
//! queries are scanned once per batch), the parallel fused strategy (the
//! batch's distinct pages are cut into work-balanced chunks scanned on
//! worker threads) and the cost-based `Auto` scheduler, which picks among
//! the fixed strategies per batch partition from the walk's footprint. Every overview index participates — the Z-indexes and
//! Flood, and the tree baselines STR / CUR / QUASII over their own node
//! layouts, fuse; Zpgm, which advertises no kernel, runs the per-query loop
//! under every strategy — so the comparison is genuinely cross-index. A
//! dedicated shard-scaling table sweeps the shard count on a large
//! overlapping batch for every index with a fused kernel, a scattered
//! low-overlap table exercises the case fusion cannot win, and a decision
//! table prints what `Auto` chose with its predicted versus measured costs.
//! `reproduce batch --json BENCH_batch.json` regenerates the committed
//! artifact from these tables.

use super::{workload_setup, ExperimentContext};
use crate::measure::{format_ns, measure_warm, BatchMeasurement};
use crate::report::Report;
use crate::suite::{build_index, IndexKind};
use wazi_core::{BatchStrategy, ChosenStrategy, Query, StrategyDecisions};
use wazi_workload::{
    generate_mixed_batch, generate_overlapping_batch, generate_scattered_batch, Region,
    SELECTIVITIES,
};

/// The overlapping-range workload: the highest selectivity of Table 2 over
/// the most concentrated query profile, so consecutive queries hit shared
/// pages — the case batching exists for.
const BATCH_REGION: Region = Region::NewYork;
const BATCH_SELECTIVITY: f64 = SELECTIVITIES[3];

/// The scattered workload: a modest batch of tiny stratified queries with
/// almost nothing to share, so the per-query loop must win and the cost
/// model must say so.
const SCATTERED_BATCH: usize = 256;
const SCATTERED_SELECTIVITY: f64 = SELECTIVITIES[0];

/// Shard counts swept by the shard-scaling table (1 = the single-threaded
/// fused scan the parallel rows are judged against).
const SHARD_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Minimum size of the overlapping batch used by the shard-scaling table:
/// parallel scans need enough stacked work to amortize thread spawning,
/// whatever the context's workload size is.
const MIN_PARALLEL_BATCH: usize = 2_000;

/// Decision sanity: the choices no calibration is allowed to make, checked
/// on every Auto measurement the experiment takes. A violation is a cost
/// model bug, not noise, so these fail the run outright.
fn assert_decisions_sane(
    kind: IndexKind,
    batch_name: &str,
    decisions: &StrategyDecisions,
    workers: usize,
) {
    for (partition, decision) in decisions.iter() {
        if workers == 1 {
            assert!(
                !matches!(decision.chosen, ChosenStrategy::FusedParallel { .. }),
                "{kind}/{batch_name}/{partition}: Auto chose a parallel schedule \
                 on a single-core host"
            );
        }
    }
}

/// One row of a range table, with its latency over the best fixed
/// strategy's — on the auto row, how well the cost model predicted.
fn pages_row(
    kind: IndexKind,
    m: &BatchMeasurement,
    strategy: &str,
    best_fixed_ns: u64,
) -> Vec<String> {
    vec![
        kind.name().to_string(),
        strategy.to_string(),
        format!("{}", m.totals.pages_scanned),
        format!("{}", m.totals.points_scanned),
        format!("{}", m.totals.bbs_checked),
        format!("{}", m.total_results),
        format_ns(m.batch_latency_ns as f64),
        format!(
            "{:.2}x",
            m.batch_latency_ns as f64 / best_fixed_ns.max(1) as f64
        ),
    ]
}

/// The strategies every batch table compares, starting with the
/// sequential baseline the asserts measure against and ending with the
/// cost-based scheduler judged against the three fixed strategies.
fn comparison(shards: usize) -> [(String, BatchStrategy); 4] {
    [
        ("sequential".to_string(), BatchStrategy::Sequential),
        ("fused".to_string(), BatchStrategy::Fused),
        (
            format!("fused-parallel/{shards}"),
            BatchStrategy::FusedParallel { shards },
        ),
        ("auto".to_string(), BatchStrategy::Auto),
    ]
}

/// Splits one [`comparison`] sweep into the auto measurement and the best
/// fixed strategy's wall-clock.
fn auto_vs_best_fixed(measured: &[(String, BatchMeasurement)]) -> (BatchMeasurement, u64) {
    let ((_, auto), fixed) = measured
        .split_last()
        .expect("the comparison ends with auto");
    let best_fixed = fixed
        .iter()
        .map(|(_, m)| m.batch_latency_ns)
        .min()
        .expect("the comparison has fixed strategies");
    (*auto, best_fixed)
}

/// Pushes one [`comparison`] sweep onto `table`, each row with its latency
/// over the best fixed strategy's, and returns the auto measurement.
fn push_sweep(
    table: &mut Report,
    kind: IndexKind,
    measured: &[(String, BatchMeasurement)],
) -> BatchMeasurement {
    let (auto, best_fixed) = auto_vs_best_fixed(measured);
    for (label, m) in measured {
        table.push_row(pages_row(kind, m, label, best_fixed));
    }
    auto
}

/// The batch experiment: sequential vs fused vs parallel-fused vs
/// cost-based auto execution of an overlapping range batch on every
/// overview index, a mixed range/point/kNN batch exercising the
/// heterogeneous path, a scattered low-overlap batch the scheduler must
/// route sequentially, a shard-count sweep on a large overlapping batch
/// for the sharded kernels, and the decision table of what Auto chose.
pub fn batch(ctx: &ExperimentContext) -> Vec<Report> {
    let (points, train, eval) =
        workload_setup(ctx, BATCH_REGION, BATCH_SELECTIVITY, ctx.dataset_size);
    let range_batch: Vec<Query> = eval.iter().copied().map(Query::range_count).collect();
    let mixed_batch = generate_mixed_batch(
        BATCH_REGION,
        ctx.workload_size,
        BATCH_SELECTIVITY,
        ctx.seed ^ 0xBA7C,
    );
    let parallel_batch = generate_overlapping_batch(
        BATCH_REGION,
        ctx.workload_size.max(MIN_PARALLEL_BATCH),
        BATCH_SELECTIVITY,
        ctx.seed ^ 0x5AAD,
    );
    let scattered_batch = generate_scattered_batch(
        BATCH_REGION,
        SCATTERED_BATCH,
        SCATTERED_SELECTIVITY,
        ctx.seed ^ 0x5CA7,
    );
    let strategies = comparison(ctx.batch_shards);
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());

    let range_headers = [
        "Index",
        "Strategy",
        "Pages scanned",
        "Points scanned",
        "BBs checked",
        "Results",
        "Batch latency",
        "÷ best fixed",
    ];
    let mut overlap = Report::new(
        "batch-range",
        "Sequential vs fused vs parallel vs auto execution of an overlapping range batch",
    )
    .with_headers(&range_headers);
    let mut mixed = Report::new(
        "batch-mixed",
        "Mixed range/point/kNN batch through the query engine",
    )
    .with_headers(&[
        "Index",
        "Strategy",
        "Fused r/p/k",
        "Results",
        "Pages r/p/k",
        "Time r/p/k",
        "Batch latency",
    ]);
    let mut scattered = Report::new(
        "batch-scattered",
        "Scattered low-overlap range batch: the case fusion cannot win",
    )
    .with_headers(&range_headers);
    let mut scaling = Report::new(
        "batch-shards",
        "Parallel fused scan over a large overlapping batch: shard-count scaling",
    )
    .with_headers(&[
        "Index",
        "Shards",
        "Pages scanned",
        "BBs checked",
        "Results",
        "Batch latency",
        "Speedup vs 1 shard",
    ]);
    let mut decisions_table = Report::new(
        "batch-decisions",
        "Auto's per-partition decisions on the mixed batch: predicted vs measured cost",
    )
    .with_headers(&[
        "Index",
        "Partition",
        "Queries",
        "Chosen",
        "Pred sequential",
        "Pred fused",
        "Pred parallel",
        "Measured",
    ]);

    // One pass over the overview suite, each index built exactly once. The
    // overlap table covers all seven overview kinds — six fuse through
    // their own range kernels, Zpgm runs the per-query loop — and
    // *asserts* the fusion contract on every row: identical results, and
    // never more pages or bounding-box checks than the sequential loop.
    // Every row reports its latency over the best fixed strategy's; on the
    // auto row that is how well the cost model predicted, reported, not
    // asserted — the golden decision table pins Auto's choices instead.
    for &kind in &IndexKind::OVERVIEW {
        let built = build_index(kind, &points, &train, ctx.leaf_capacity);
        let index = built.index.as_ref();
        let baseline = measure_warm(index, &range_batch, BatchStrategy::Sequential);
        let mut measured: Vec<(String, BatchMeasurement)> = Vec::new();
        for (label, strategy) in &strategies {
            let m = measure_warm(index, &range_batch, *strategy);
            assert_eq!(
                baseline.total_results, m.total_results,
                "{kind}/{label}: fused range-batch results diverge from sequential"
            );
            assert!(
                m.totals.pages_scanned <= baseline.totals.pages_scanned,
                "{kind}/{label}: fused pages regressed ({} vs {} sequential)",
                m.totals.pages_scanned,
                baseline.totals.pages_scanned
            );
            assert!(
                m.totals.bbs_checked <= baseline.totals.bbs_checked,
                "{kind}/{label}: fused BB checks regressed ({} vs {} sequential)",
                m.totals.bbs_checked,
                baseline.totals.bbs_checked
            );
            measured.push((label.clone(), m));
        }
        let auto_m = push_sweep(&mut overlap, kind, &measured);
        assert_decisions_sane(kind, "overlap", &auto_m.decisions, workers);

        // The scattered batch: stratified tiny queries with almost no
        // shared pages, so a fused scan's setup buys nothing.
        let scattered_baseline = measure_warm(index, &scattered_batch, BatchStrategy::Sequential);
        let mut scattered_measured: Vec<(String, BatchMeasurement)> = Vec::new();
        for (label, strategy) in &strategies {
            let m = measure_warm(index, &scattered_batch, *strategy);
            assert_eq!(
                scattered_baseline.total_results, m.total_results,
                "{kind}/{label}: scattered-batch results diverge from sequential"
            );
            scattered_measured.push((label.clone(), m));
        }
        let auto_m = push_sweep(&mut scattered, kind, &scattered_measured);
        assert_decisions_sane(kind, "scattered", &auto_m.decisions, workers);

        // Shard scaling for every index with a fused range kernel. The
        // closing `auto` row shows what the scheduler does with the same
        // big overlapping batch.
        if index.range_batch_kernel().is_some() {
            let mut one_shard_ns = None;
            for shards in SHARD_SWEEP {
                let m = measure_warm(
                    index,
                    &parallel_batch,
                    BatchStrategy::FusedParallel { shards },
                );
                let base = *one_shard_ns.get_or_insert(m.batch_latency_ns.max(1));
                scaling.push_row(vec![
                    kind.name().to_string(),
                    shards.to_string(),
                    m.totals.pages_scanned.to_string(),
                    m.totals.bbs_checked.to_string(),
                    m.total_results.to_string(),
                    format_ns(m.batch_latency_ns as f64),
                    format!("{:.2}x", base as f64 / m.batch_latency_ns.max(1) as f64),
                ]);
            }
            let m = measure_warm(index, &parallel_batch, BatchStrategy::Auto);
            assert_decisions_sane(kind, "parallel", &m.decisions, workers);
            // On this heavily overlapping batch every kernel has real
            // fetches to share: a scheduler that falls back to the
            // per-query loop here has its calibration upside down.
            if let Some(range) = m.decisions.range {
                assert_ne!(
                    range.chosen,
                    ChosenStrategy::Sequential,
                    "{kind}/parallel: Auto refused to fuse a heavily \
                     overlapping batch"
                );
            }
            let base = one_shard_ns.unwrap_or(1);
            scaling.push_row(vec![
                kind.name().to_string(),
                format!(
                    "auto ({})",
                    m.decisions
                        .range
                        .map_or("-".to_string(), |d| d.chosen.to_string())
                ),
                m.totals.pages_scanned.to_string(),
                m.totals.bbs_checked.to_string(),
                m.total_results.to_string(),
                format_ns(m.batch_latency_ns as f64),
                format!("{:.2}x", base as f64 / m.batch_latency_ns.max(1) as f64),
            ]);
        }

        // The mixed batch runs on every overview index — Zpgm included,
        // through the per-query loop — and the experiment *asserts* the
        // engine's equivalence contract on every row: fused and
        // fused-parallel mixed execution must produce exactly the
        // sequential loop's result counts (overall and per plan type), and
        // the fused strategies must never scan more pages than sequential
        // on any partition of a kernel-backed index. CI runs this
        // experiment at 1 and 4 shards on every push, so a divergence fails
        // the build.
        let mut mixed_measured: Vec<(String, BatchMeasurement)> = Vec::new();
        for (label, strategy) in &strategies {
            let m = measure_warm(index, &mixed_batch, *strategy);
            if let Some((_, reference)) = mixed_measured.first() {
                assert_eq!(
                    m.total_results, reference.total_results,
                    "{kind}/{label}: fused mixed-batch results diverge from sequential"
                );
                for (plan, fused_kind, sequential_kind) in [
                    ("range", &m.range_kind, &reference.range_kind),
                    ("point", &m.point_kind, &reference.point_kind),
                    ("knn", &m.knn_kind, &reference.knn_kind),
                ] {
                    assert_eq!(
                        fused_kind.results, sequential_kind.results,
                        "{kind}/{label}: {plan} partition results diverge"
                    );
                    if index.range_batch_kernel().is_some() {
                        assert!(
                            fused_kind.pages_scanned <= sequential_kind.pages_scanned,
                            "{kind}/{label}: {plan} partition pages regressed \
                             ({} fused vs {} sequential)",
                            fused_kind.pages_scanned,
                            sequential_kind.pages_scanned
                        );
                    }
                }
            }
            mixed.push_row(vec![
                kind.name().to_string(),
                label.clone(),
                format!("{}/{}/{}", m.fused_queries, m.fused_points, m.fused_knn),
                m.total_results.to_string(),
                format!(
                    "{}/{}/{}",
                    m.range_kind.pages_scanned,
                    m.point_kind.pages_scanned,
                    m.knn_kind.pages_scanned
                ),
                format!(
                    "{} / {} / {}",
                    format_ns(m.range_kind.time_ns as f64),
                    format_ns(m.point_kind.time_ns as f64),
                    format_ns(m.knn_kind.time_ns as f64)
                ),
                format_ns(m.batch_latency_ns as f64),
            ]);
            mixed_measured.push((label.clone(), m));
        }
        let (auto_m, _) = auto_vs_best_fixed(&mixed_measured);
        assert_decisions_sane(kind, "mixed", &auto_m.decisions, workers);
        for (partition, decision) in auto_m.decisions.iter() {
            let (pred_seq, pred_fused, pred_par) = match decision.estimate {
                Some(e) => (
                    format_ns(e.sequential_ns as f64),
                    format_ns(e.fused_ns as f64),
                    e.fused_parallel_ns.map_or("-".to_string(), |ns| {
                        format!("{} ({} shards)", format_ns(ns as f64), e.shards)
                    }),
                ),
                None => ("-".to_string(), "-".to_string(), "-".to_string()),
            };
            decisions_table.push_row(vec![
                kind.name().to_string(),
                partition.to_string(),
                decision.queries.to_string(),
                decision.chosen.to_string(),
                pred_seq,
                pred_fused,
                pred_par,
                format_ns(decision.actual_ns as f64),
            ]);
        }
    }

    overlap.push_note(format!(
        "region {BATCH_REGION}, selectivity {:.4}%, {} queries per batch, {} points",
        BATCH_SELECTIVITY * 100.0,
        range_batch.len(),
        ctx.dataset_size
    ));
    overlap.push_note(
        "asserted per row: fused results equal sequential, and fused pages and BB \
         checks never exceed sequential. '÷ best fixed' is the row's latency over the \
         fastest fixed strategy's on this host — on the auto row, how close the cost \
         model came — reported, not asserted. Expected shape: the six indexes with fused kernels \
         (WaZI, Base, STR, CUR, Flood, QUASII) scan strictly fewer pages fused on this \
         overlapping batch; Zpgm advertises no kernel, so every strategy runs its \
         per-query loop",
    );
    mixed.push_note(
        "r/p/k columns split each quantity by plan type (range / point probe / kNN); \
         'Fused r/p/k' counts the plans routed through the fused kernel — range plans \
         walked, point probes located and grouped by unit, kNN plans through grouped \
         expanding-ring sweeps over the same kernel",
    );
    mixed.push_note(
        "asserted per row: fused results (overall and per plan type) equal sequential, \
         and no kernel-backed partition scans more pages fused than sequential — the \
         point partition's fused pages drop below sequential wherever probes share \
         a unit. Zpgm's flat code array has no fetches to share and no kernel, \
         so its rows read the per-query loop under every strategy",
    );
    scattered.push_note(format!(
        "{SCATTERED_BATCH} tiny counting queries stratified over a jittered grid \
         (generate_scattered_batch) at selectivity {:.4}%: page visits ≈ distinct \
         pages, so a fused scan has almost no shared fetches to amortize its \
         setup against. Asserted: identical results across strategies; the auto \
         row's '÷ best fixed' is reported, not asserted",
        SCATTERED_SELECTIVITY * 100.0
    ));
    scaling.push_note(format!(
        "{} heavily overlapping counting queries (generate_overlapping_batch), walked \
         once; the batch's distinct units are cut into contiguous chunks weighted by \
         the scans each unit serves; shards = 1 is the single-threaded fused scan. \
         Units: leaves (WaZI/Base), grid columns (Flood), leaf pages (STR/CUR), \
         cracked pieces (QUASII); Zpgm has no kernel and no rows. Pages and BB checks \
         are shard-invariant: chunks split the scans, never a walk, and every unit is \
         fetched once per batch. The closing auto row shows the cost model's pick \
         for the same batch (never a parallel schedule without worker threads; never \
         the per-query loop on this much overlap)",
        parallel_batch.len()
    ));
    scaling.push_note(format!(
        "host available_parallelism = {workers}: parallel speedup requires hardware \
         threads; on a single-core host the engine scans the planned chunks inline, \
         so >1-shard rows measure sharding overhead only"
    ));
    decisions_table.push_note(
        "one row per partition of the mixed batch the Auto scheduler decided \
         (range partitions carry the full cost estimate; point partitions always \
         fuse on one shard and kNN partitions are routed by a size rule, so their \
         predicted columns are '-'; Zpgm has no \
         kernel, so nothing to decide and no rows). 'Measured' is the partition's \
         wall-clock under the chosen schedule",
    );

    vec![overlap, mixed, scattered, scaling, decisions_table]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::measure_query_batch;
    use wazi_storage::ExecStats;

    /// The acceptance property behind `BENCH_batch.json`: on an overlapping
    /// range batch, WaZI's fused kernel visits fewer pages than
    /// query-at-a-time execution — and never checks more bounding boxes —
    /// at identical results.
    #[test]
    fn fused_wazi_scans_fewer_pages_than_sequential() {
        let ctx = ExperimentContext::smoke_test();
        let (points, train, eval) =
            workload_setup(&ctx, BATCH_REGION, BATCH_SELECTIVITY, ctx.dataset_size);
        let batch: Vec<Query> = eval.iter().copied().map(Query::range_count).collect();
        let built = build_index(IndexKind::Wazi, &points, &train, ctx.leaf_capacity);
        let sequential =
            measure_query_batch(built.index.as_ref(), &batch, BatchStrategy::Sequential);
        let fused = measure_query_batch(built.index.as_ref(), &batch, BatchStrategy::Fused);
        assert_eq!(sequential.total_results, fused.total_results);
        assert_eq!(fused.fused_queries, batch.len());
        assert!(
            fused.totals.pages_scanned < sequential.totals.pages_scanned,
            "fused {} pages vs sequential {}",
            fused.totals.pages_scanned,
            sequential.totals.pages_scanned
        );
        assert!(
            fused.totals.bbs_checked <= sequential.totals.bbs_checked,
            "fused {} bbs vs sequential {}",
            fused.totals.bbs_checked,
            sequential.totals.bbs_checked
        );
    }

    /// The parallel acceptance shape (counters only — wall-clock belongs to
    /// the real benchmark run): every shard count returns identical answers
    /// and point comparisons over the big overlapping batch, and — since
    /// chunks split the scans, never a walk — exactly the single scan's
    /// bounding-box checks, skips and page visits, below the sequential
    /// loop's.
    #[test]
    fn shard_sweep_preserves_answers_on_the_overlapping_batch() {
        let ctx = ExperimentContext::smoke_test();
        let (points, train, _) =
            workload_setup(&ctx, BATCH_REGION, BATCH_SELECTIVITY, ctx.dataset_size);
        let batch = generate_overlapping_batch(BATCH_REGION, 500, BATCH_SELECTIVITY, 3);
        let built = build_index(IndexKind::Wazi, &points, &train, ctx.leaf_capacity);
        let sequential =
            measure_query_batch(built.index.as_ref(), &batch, BatchStrategy::Sequential);
        let mut reference: Option<(u64, ExecStats)> = None;
        for shards in SHARD_SWEEP {
            let m = measure_query_batch(
                built.index.as_ref(),
                &batch,
                BatchStrategy::FusedParallel { shards },
            );
            assert!(m.shards_used >= 1, "{shards} shards: kernel path not taken");
            assert!(m.shards_used <= shards.max(1));
            assert!(
                m.totals.pages_scanned <= sequential.totals.pages_scanned,
                "{shards} shards: pages exceed the sequential loop"
            );
            match &reference {
                Some((results, totals)) => {
                    assert_eq!(m.total_results, *results, "{shards} shards");
                    assert_eq!(m.totals.points_scanned, totals.points_scanned);
                    // Every request is walked once, before the chunks: check,
                    // skip and page counts are shard-invariant.
                    assert_eq!(m.totals.bbs_checked, totals.bbs_checked);
                    assert_eq!(m.totals.leaves_skipped, totals.leaves_skipped);
                    assert_eq!(m.totals.pages_scanned, totals.pages_scanned);
                }
                None => reference = Some((m.total_results, m.totals)),
            }
        }
    }

    #[test]
    fn batch_experiment_produces_rows_for_every_overview_index() {
        let ctx = ExperimentContext::smoke_test();
        let reports = batch(&ctx);
        assert_eq!(reports.len(), 5);
        let [overlap, mixed, scattered, scaling, decisions] = &reports[..] else {
            panic!("expected five reports");
        };
        // The overlap, scattered and mixed tables cover the whole overview
        // suite under all four strategies of the full comparison.
        assert_eq!(overlap.rows.len(), IndexKind::OVERVIEW.len() * 4);
        assert_eq!(mixed.rows.len(), IndexKind::OVERVIEW.len() * 4);
        assert_eq!(scattered.rows.len(), IndexKind::OVERVIEW.len() * 4);
        // Every overview index but Zpgm has a fused kernel; the scaling
        // table has one row per swept shard count for each, plus the auto
        // row.
        let fusing = IndexKind::OVERVIEW.map(|kind| kind != IndexKind::Zpgm);
        assert_eq!(
            scaling.rows.len(),
            fusing.iter().filter(|&&fuses| fuses).count() * (SHARD_SWEEP.len() + 1)
        );
        // Every index appears with every strategy.
        for kind in IndexKind::OVERVIEW {
            for strategy in ["sequential", "fused", "fused-parallel/4", "auto"] {
                assert!(
                    overlap
                        .rows
                        .iter()
                        .any(|r| r[0] == kind.name() && r[1] == strategy),
                    "missing {kind}/{strategy} row"
                );
            }
        }
        // The fused mixed rows show nonzero fused range/point/kNN counts
        // for every index with kernels, and zero counts for Zpgm, which
        // answers through the per-query loop.
        for (kind, fuses) in IndexKind::OVERVIEW.into_iter().zip(fusing) {
            let row = mixed
                .rows
                .iter()
                .find(|r| r[0] == kind.name() && r[1] == "fused")
                .unwrap_or_else(|| panic!("missing {kind}/fused mixed row"));
            let fused_counts: Vec<u64> = row[2]
                .split('/')
                .map(|n| n.parse().expect("fused counts are numeric"))
                .collect();
            assert_eq!(fused_counts.len(), 3, "{kind}: r/p/k triple");
            assert!(
                fused_counts.iter().all(|&n| (n > 0) == fuses),
                "{kind}: unexpected fused range/point/kNN counts {:?}",
                fused_counts
            );
            // The decision table records at least the range decision of
            // every mixed batch with a kernel, and nothing for Zpgm.
            assert_eq!(
                decisions
                    .rows
                    .iter()
                    .any(|r| r[0] == kind.name() && r[1] == "range"),
                fuses,
                "{kind}: range decision row"
            );
        }
    }

    /// The tree-baseline acceptance shape behind `BENCH_batch.json`: on the
    /// overlapping range batch, STR, CUR and QUASII answer through their
    /// fused `RangeBatchKernel` with results and BB-check counts *equal* to
    /// the sequential walk (the batch walk prunes exactly like the solo
    /// walks) while scanning strictly fewer pages (a leaf page read by k
    /// queries is fetched once, not k times).
    #[test]
    fn fused_tree_baselines_share_pages_at_identical_walks() {
        let ctx = ExperimentContext::smoke_test();
        let (points, train, eval) =
            workload_setup(&ctx, BATCH_REGION, BATCH_SELECTIVITY, ctx.dataset_size);
        let batch: Vec<Query> = eval.iter().copied().map(Query::range_count).collect();
        for kind in [IndexKind::Str, IndexKind::Cur, IndexKind::Quasii] {
            let built = build_index(kind, &points, &train, ctx.leaf_capacity);
            let sequential =
                measure_query_batch(built.index.as_ref(), &batch, BatchStrategy::Sequential);
            let fused = measure_query_batch(built.index.as_ref(), &batch, BatchStrategy::Fused);
            assert_eq!(fused.fused_queries, batch.len(), "{kind}");
            assert_eq!(fused.total_results, sequential.total_results, "{kind}");
            assert_eq!(
                fused.totals.bbs_checked, sequential.totals.bbs_checked,
                "{kind}: the batch walk must replicate the solo walks"
            );
            assert_eq!(
                fused.totals.points_scanned, sequential.totals.points_scanned,
                "{kind}: fusion changed the points compared"
            );
            assert!(
                fused.totals.pages_scanned < sequential.totals.pages_scanned,
                "{kind}: overlapping queries must share page fetches \
                 ({} fused vs {} sequential)",
                fused.totals.pages_scanned,
                sequential.totals.pages_scanned
            );
        }
    }

    /// The point-probe acceptance shape behind `BENCH_batch.json`: on a
    /// probe batch with hot-key duplicates, WaZI's fused point partition
    /// visits strictly fewer pages than the per-probe loop, at identical
    /// answers.
    #[test]
    fn fused_point_partition_scans_fewer_pages_on_wazi() {
        let ctx = ExperimentContext::smoke_test();
        let (points, train, _) =
            workload_setup(&ctx, BATCH_REGION, BATCH_SELECTIVITY, ctx.dataset_size);
        let batch = wazi_workload::generate_point_batch(BATCH_REGION, 400, 29);
        let built = build_index(IndexKind::Wazi, &points, &train, ctx.leaf_capacity);
        let sequential =
            measure_query_batch(built.index.as_ref(), &batch, BatchStrategy::Sequential);
        let fused = measure_query_batch(built.index.as_ref(), &batch, BatchStrategy::Fused);
        assert_eq!(fused.fused_points, batch.len());
        assert_eq!(fused.total_results, sequential.total_results);
        assert_eq!(fused.point_kind.results, sequential.point_kind.results);
        assert!(
            fused.point_kind.pages_scanned < sequential.point_kind.pages_scanned,
            "duplicate probes must share page visits: fused {} vs sequential {}",
            fused.point_kind.pages_scanned,
            sequential.point_kind.pages_scanned
        );
        assert_eq!(
            fused.totals.points_scanned, sequential.totals.points_scanned,
            "fusion must not change the points compared"
        );
    }
}
