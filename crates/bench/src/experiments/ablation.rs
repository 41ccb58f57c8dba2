//! Figure 13: ablation study of adaptive partitioning and look-ahead
//! skipping, plus extra ablations of WaZI's design knobs: the number of
//! candidate splits `κ`, the skip-cost constant `α`, RFDE vs exact
//! density, and workload drift.

use super::{workload_setup, ExperimentContext};
use crate::measure::{format_ns, measure_range_queries};
use crate::report::Report;
use crate::suite::{build_index, IndexKind};
use wazi_core::{BuildStrategy, DensityMode, ZIndexBuilder, ZIndexConfig};
use wazi_workload::{generate_queries_with_seed, Region, ABLATION_SELECTIVITIES, SELECTIVITIES};

/// Figure 13: query time, excess points, bounding boxes checked and pages
/// scanned for Base, Base+SK, WaZI−SK and WaZI across the ablation
/// selectivity range.
pub fn figure13(ctx: &ExperimentContext) -> Vec<Report> {
    let region = Region::NewYork;
    let mut query_time = Report::new(
        "figure13-time",
        "Ablation: query time (Figure 13, top-left)",
    )
    .with_headers(&["Selectivity (%)", "Base", "Base+SK", "WaZI-SK", "WaZI"]);
    let mut excess = Report::new(
        "figure13-excess",
        "Ablation: excess points compared (Figure 13, top-right)",
    )
    .with_headers(&["Selectivity (%)", "Base", "Base+SK", "WaZI-SK", "WaZI"]);
    let mut bbs = Report::new(
        "figure13-bbs",
        "Ablation: bounding boxes checked (Figure 13, bottom-left)",
    )
    .with_headers(&["Selectivity (%)", "Base", "Base+SK", "WaZI-SK", "WaZI"]);
    let mut pages = Report::new(
        "figure13-pages",
        "Ablation: pages scanned (Figure 13, bottom-right)",
    )
    .with_headers(&["Selectivity (%)", "Base", "Base+SK", "WaZI-SK", "WaZI"]);

    for &selectivity in &ABLATION_SELECTIVITIES {
        let (points, train, eval) = workload_setup(ctx, region, selectivity, ctx.dataset_size);
        let mut time_row = vec![format!("{:.4}", selectivity * 100.0)];
        let mut excess_row = time_row.clone();
        let mut bbs_row = time_row.clone();
        let mut pages_row = time_row.clone();
        for kind in IndexKind::ABLATION {
            let built = build_index(kind, &points, &train, ctx.leaf_capacity);
            let m = measure_range_queries(built.index.as_ref(), &eval);
            time_row.push(format_ns(m.mean_latency_ns));
            excess_row.push(format!("{:.0}", m.mean_excess_points));
            bbs_row.push(format!("{:.0}", m.mean_bbs_checked));
            pages_row.push(format!("{:.0}", m.mean_pages_scanned));
        }
        query_time.push_row(time_row);
        excess.push_row(excess_row);
        bbs.push_row(bbs_row);
        pages.push_row(pages_row);
    }
    bbs.push_note(
        "expected shape: the +SK variants check orders of magnitude fewer bounding boxes",
    );
    excess.push_note("expected shape: adaptive partitioning (WaZI, WaZI-SK) reduces excess points and pages scanned; skipping alone does not");
    query_time.push_note("expected shape: WaZI is fastest; Base+SK approaches Base and WaZI-SK approaches WaZI as selectivity grows");
    vec![query_time, excess, bbs, pages]
}

/// Extra ablations beyond the paper: sensitivity of WaZI to the number of
/// candidate splits `κ`, the skip-cost constant `α`, and the density
/// estimation mode (RFDE vs exact counting).
pub fn extra(ctx: &ExperimentContext) -> Vec<Report> {
    let region = Region::NewYork;
    let selectivity = SELECTIVITIES[1];
    let (points, train, eval) = workload_setup(ctx, region, selectivity, ctx.dataset_size);
    let train_small: Vec<_> = train.iter().copied().take(ctx.training_size).collect();
    let eval_small: Vec<_> = eval.iter().copied().take(ctx.workload_size).collect();

    let mut kappa_report = Report::new(
        "ablation-kappa",
        "Extra ablation: candidate split samples (kappa) vs build time and query latency",
    )
    .with_headers(&["kappa", "Build", "Range latency", "Points scanned"]);
    for kappa in [1usize, 4, 16, 64] {
        let config = ZIndexConfig::wazi()
            .with_leaf_capacity(ctx.leaf_capacity)
            .with_kappa(kappa);
        let (build_ns, index) = timed_build(config, BuildStrategy::Adaptive, &points, &train_small);
        let m = measure_range_queries(&index, &eval_small);
        kappa_report.push_row(vec![
            kappa.to_string(),
            format_ns(build_ns),
            format_ns(m.mean_latency_ns),
            format!("{:.0}", m.mean_points_scanned),
        ]);
    }
    kappa_report.push_note("build time grows with kappa; query latency improvements flatten out");

    let mut alpha_report = Report::new(
        "ablation-alpha",
        "Extra ablation: skip-cost constant alpha vs query latency",
    )
    .with_headers(&["alpha", "Range latency", "BBs checked", "Points scanned"]);
    for alpha in [1e-5, 1e-2, 0.1, 0.5, 1.0] {
        let config = ZIndexConfig::wazi()
            .with_leaf_capacity(ctx.leaf_capacity)
            .with_alpha(alpha);
        let (_, index) = timed_build(config, BuildStrategy::Adaptive, &points, &train_small);
        let m = measure_range_queries(&index, &eval_small);
        alpha_report.push_row(vec![
            format!("{alpha}"),
            format_ns(m.mean_latency_ns),
            format!("{:.0}", m.mean_bbs_checked),
            format!("{:.0}", m.mean_points_scanned),
        ]);
    }
    alpha_report.push_note("small alpha (the paper uses 1e-5 with skipping) lets the optimiser tolerate spanning layouts whose skipped cells are nearly free");

    let mut density_report = Report::new(
        "ablation-density",
        "Extra ablation: RFDE-estimated vs exact cardinalities during construction",
    )
    .with_headers(&["Density mode", "Build", "Range latency", "Points scanned"]);
    for (label, mode) in [
        ("RFDE (paper)", DensityMode::default()),
        ("Exact counting", DensityMode::Exact),
    ] {
        let config = ZIndexConfig::wazi()
            .with_leaf_capacity(ctx.leaf_capacity)
            .with_density(mode);
        let (build_ns, index) = timed_build(config, BuildStrategy::Adaptive, &points, &train_small);
        let m = measure_range_queries(&index, &eval_small);
        density_report.push_row(vec![
            label.to_string(),
            format_ns(build_ns),
            format_ns(m.mean_latency_ns),
            format!("{:.0}", m.mean_points_scanned),
        ]);
    }
    density_report.push_note("the learned estimator trades a little layout quality for faster cost evaluation on large cells");

    // Workload-drift robustness of the drifted evaluation is covered by
    // Figure 12; the same infrastructure is reused here for a quick check
    // that a workload from another region degrades WaZI as expected.
    let other = generate_queries_with_seed(Region::Iberia, eval_small.len(), selectivity, 99);
    let config = ZIndexConfig::wazi().with_leaf_capacity(ctx.leaf_capacity);
    let (_, wazi) = timed_build(config, BuildStrategy::Adaptive, &points, &train_small);
    let own = measure_range_queries(&wazi, &eval_small);
    let foreign = measure_range_queries(&wazi, &other);
    let mut drift_report = Report::new(
        "ablation-foreign-workload",
        "Extra ablation: WaZI evaluated on its own vs a foreign workload",
    )
    .with_headers(&["Workload", "Range latency", "Points scanned"]);
    drift_report.push_row(vec![
        "trained (NewYork)".into(),
        format_ns(own.mean_latency_ns),
        format!("{:.0}", own.mean_points_scanned),
    ]);
    drift_report.push_row(vec![
        "foreign (Iberia)".into(),
        format_ns(foreign.mean_latency_ns),
        format!("{:.0}", foreign.mean_points_scanned),
    ]);

    vec![kappa_report, alpha_report, density_report, drift_report]
}

/// Builds a WaZI/Base variant with an explicit configuration, returning the
/// build time and the index.
fn timed_build(
    config: ZIndexConfig,
    strategy: BuildStrategy,
    points: &[wazi_geom::Point],
    train: &[wazi_geom::Rect],
) -> (f64, wazi_core::ZIndex) {
    let start = std::time::Instant::now();
    let index = ZIndexBuilder::new(config, strategy).build(points.to_vec(), train);
    (start.elapsed().as_nanos() as f64, index)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure13_produces_four_panels() {
        let mut ctx = ExperimentContext::smoke_test();
        ctx.dataset_size = 3_000;
        ctx.workload_size = 50;
        ctx.training_size = 50;
        let reports = figure13(&ctx);
        assert_eq!(reports.len(), 4);
        for report in &reports {
            assert_eq!(report.rows.len(), ABLATION_SELECTIVITIES.len());
            assert_eq!(report.headers.len(), 5);
        }
    }

    #[test]
    fn extra_ablations_cover_kappa_alpha_density() {
        let mut ctx = ExperimentContext::smoke_test();
        ctx.dataset_size = 2_000;
        ctx.workload_size = 30;
        ctx.training_size = 30;
        let reports = extra(&ctx);
        assert_eq!(reports.len(), 4);
        assert_eq!(reports[0].rows.len(), 4); // kappa sweep
        assert_eq!(reports[1].rows.len(), 5); // alpha sweep
        assert_eq!(reports[2].rows.len(), 2); // density modes
        assert_eq!(reports[3].rows.len(), 2); // own vs foreign workload
    }
}
