//! Cost-model calibration: where the numbers in
//! [`wazi_core::CostConstants::BAKED`] come from, and how to check them on
//! the host you are running on.
//!
//! The engine's [`wazi_core::BatchStrategy::Auto`] scheduler prices each
//! range partition's shard count with one set of constants (nanoseconds
//! per page fetch, per point comparison, per thread spawn, and the
//! parallel efficiency). Those constants are baked into the core crate so
//! scheduling never needs a warm-up run — but baked numbers age with
//! hardware, so this experiment re-fits them from targeted
//! micro-measurements on WaZI, prints baked-versus-fitted per constant, and
//! *asserts* that each fitted constant is within a loose sanity band of its
//! baked value (an order-of-magnitude drift means the model's units are
//! wrong, not that the machine is fast).
//!
//! What fusion costs on this host's clock — fused ÷ sequential on an
//! overlapping batch and on a scattered one beside it, with the shard
//! count Auto picked for each — is reported, not asserted.
//!
//! `reproduce calibrate --json BENCH_calibrate.json` regenerates the
//! committed table; re-baking after a hardware change is a copy-paste of
//! the fitted column into `engine/cost.rs`.

use super::{workload_setup, ExperimentContext};
use crate::measure::{format_ns, measure_warm, BatchMeasurement};
use crate::report::Report;
use crate::suite::{build_index, IndexKind};
use wazi_core::{BatchStrategy, CostConstants};
use wazi_workload::{generate_overlapping_batch, generate_scattered_batch, Region, SELECTIVITIES};

/// Region and selectivities mirrored from the batch experiment, so the
/// calibration workloads are the decision workloads.
const CALIBRATE_REGION: Region = Region::NewYork;
const OVERLAP_SELECTIVITY: f64 = SELECTIVITIES[3];
const SCATTERED_SELECTIVITY: f64 = SELECTIVITIES[0];

/// Size of the scattered batch: large enough that its latency dominates
/// timer resolution, small enough for a `--smoke` CI job.
const FIT_BATCH: usize = 512;

/// A fitted constant may drift this factor from its baked value in either
/// direction before the sanity assert trips: calibration tracks hardware,
/// the assert only catches unit-level mistakes.
const SANITY_BAND: f64 = 64.0;

/// One fitted constant: `None` means the host cannot fit it (for example
/// the parallel constants on a single-core container) and the baked value
/// stands.
struct Fitted {
    name: &'static str,
    baked: f64,
    fitted: Option<f64>,
}

impl Fitted {
    /// Fitted over baked, when this host could fit the constant.
    fn ratio(&self) -> Option<f64> {
        Some(self.fitted? / self.baked)
    }
}

/// One decision-boundary row: the shard count Auto chose for `batch` on
/// WaZI, beside the measured latency of the per-query loop, one fused
/// shard and Auto.
struct Boundary {
    batch: &'static str,
    shards: usize,
    sequential_latency_ns: u64,
    fused_ns: u64,
    auto_ns: u64,
}

/// Per-point cost fitted from the sequential run of the overlapping batch:
/// its latency divided by the points it was charged. A page lying wholly
/// inside a rectangle is accepted without a comparison yet charged in full
/// (`points_scanned` is the Eq. 5 charge), so this is the *effective* cost
/// per charged point at the whole-page share of a realistic query set — the
/// quantity the cost model multiplies by — not the cost of one comparison.
/// Page fetches and per-request setup ride along: acceptable for a loose
/// fit, they are amortised over the leaf capacity.
fn fit_point_ns(m: &BatchMeasurement) -> Option<f64> {
    (m.totals.points_scanned > 0)
        .then(|| m.batch_latency_ns as f64 / m.totals.points_scanned as f64)
}

/// Runs the experiment: the fit, the sanity band, and the report.
pub fn calibrate(ctx: &ExperimentContext) -> Vec<Report> {
    let (fits, boundaries) = fit(ctx);
    check_sanity_band(&fits);
    render(&fits, &boundaries)
}

/// Fits the constants on WaZI, returning the constant rows and the
/// decision-boundary measurements.
fn fit(ctx: &ExperimentContext) -> (Vec<Fitted>, Vec<Boundary>) {
    let (points, train, _) =
        workload_setup(ctx, CALIBRATE_REGION, OVERLAP_SELECTIVITY, ctx.dataset_size);
    let scattered = generate_scattered_batch(
        CALIBRATE_REGION,
        FIT_BATCH,
        SCATTERED_SELECTIVITY,
        ctx.seed ^ 0xCA11,
    );
    let overlapping = generate_overlapping_batch(
        CALIBRATE_REGION,
        FIT_BATCH.max(ctx.workload_size),
        OVERLAP_SELECTIVITY,
        ctx.seed ^ 0xF17,
    );

    let baked = CostConstants::BAKED;
    let built = build_index(IndexKind::Wazi, &points, &train, ctx.leaf_capacity);
    let index = built.index.as_ref();

    let seq_o = measure_warm(index, &overlapping, BatchStrategy::Sequential);
    let point_ns = fit_point_ns(&seq_o);
    // Attribute a leaf-capacity's worth of point cost per fetch as the page
    // term's loose fit.
    let page_ns = point_ns.map(|p| p * ctx.leaf_capacity as f64 * 0.25);
    let fits = constants_rows(&baked, point_ns, page_ns);

    let shards = |m: &BatchMeasurement| {
        m.decisions
            .range
            .expect("the batch has a range partition to decide")
            .shards
    };
    let seq_m = measure_warm(index, &scattered, BatchStrategy::Sequential);
    let fused_m = measure_warm(index, &scattered, BatchStrategy::Fused);
    let auto_m = measure_warm(index, &scattered, BatchStrategy::Auto);
    let fused_o = measure_warm(index, &overlapping, BatchStrategy::Fused);
    let auto_o = measure_warm(index, &overlapping, BatchStrategy::Auto);
    let boundaries = vec![
        Boundary {
            batch: "scattered",
            shards: shards(&auto_m),
            sequential_latency_ns: seq_m.batch_latency_ns,
            fused_ns: fused_m.batch_latency_ns,
            auto_ns: auto_m.batch_latency_ns,
        },
        Boundary {
            batch: "overlapping",
            shards: shards(&auto_o),
            sequential_latency_ns: seq_o.batch_latency_ns,
            fused_ns: fused_o.batch_latency_ns,
            auto_ns: auto_o.batch_latency_ns,
        },
    ];
    (fits, boundaries)
}

/// Every fitted constant inside the sanity band of its baked value: a fit
/// off by this much is a unit error, not a fast or slow host.
fn check_sanity_band(fits: &[Fitted]) {
    for fit in fits {
        let (Some(f), Some(ratio)) = (fit.fitted, fit.ratio()) else {
            continue;
        };
        assert!(
            ratio < SANITY_BAND && ratio > 1.0 / SANITY_BAND,
            "{}: fitted {f:.1} ns is outside the sanity band of baked {:.1} ns",
            fit.name,
            fit.baked
        );
    }
}

/// Lays the fit out as the two report tables.
fn render(fits: &[Fitted], boundaries: &[Boundary]) -> Vec<Report> {
    let mut table = Report::new(
        "calibrate-constants",
        "Cost-model constants: baked (engine/cost.rs) vs fitted on WaZI on this host",
    )
    .with_headers(&["Constant", "Baked", "Fitted", "Ratio"]);
    for fit in fits {
        let (fitted_cell, ratio_cell) = match (fit.fitted, fit.ratio()) {
            (Some(f), Some(ratio)) => (format!("{f:.1}"), format!("{ratio:.2}x")),
            _ => ("-".to_string(), "-".to_string()),
        };
        table.push_row(vec![
            fit.name.to_string(),
            format!("{:.1}", fit.baked),
            fitted_cell,
            ratio_cell,
        ]);
    }
    let mut boundary_table = Report::new(
        "calibrate-boundaries",
        "Decision boundaries on WaZI under the baked constants on this host",
    )
    .with_headers(&[
        "Batch",
        "Shards",
        "Sequential",
        "Fused",
        "Auto",
        "Fused ÷ sequential",
    ]);
    for b in boundaries {
        boundary_table.push_row(vec![
            b.batch.to_string(),
            b.shards.to_string(),
            format_ns(b.sequential_latency_ns as f64),
            format_ns(b.fused_ns as f64),
            format_ns(b.auto_ns as f64),
            format!(
                "{:.2}x",
                b.fused_ns as f64 / b.sequential_latency_ns.max(1) as f64
            ),
        ]);
    }

    table.push_note(format!(
        "fits: point_ns from the sequential overlapping batch (latency / points charged: \
         the effective cost at that query set's share of pages accepted whole, not the \
         cost of one comparison), page_ns as a quarter leaf-capacity of point cost per \
         fetch; '-' marks constants this host cannot fit (the parallel constants need \
         worker threads — available_parallelism = {}). Asserted: every fitted constant \
         within {SANITY_BAND:.0}x of its baked value. To re-bake after a hardware \
         change, copy the fitted column into CostConstants::BAKED (engine/cost.rs) \
         and re-run `reproduce batch`",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    boundary_table.push_note(format!(
        "Auto runs every range partition fused; 'Shards' is the count it picked (1 = one \
         fused shard). The scattered batch has {FIT_BATCH} queries. Latencies and \
         'Fused ÷ sequential' are this host's clock, reported, not asserted: fused \
         should read below 1x on the overlapping row",
    ));
    vec![table, boundary_table]
}

/// Lays out the constant rows: fitted where this host could measure,
/// `None` (baked stands) elsewhere.
fn constants_rows(
    baked: &CostConstants,
    point_ns: Option<f64>,
    page_ns: Option<f64>,
) -> Vec<Fitted> {
    vec![
        Fitted {
            name: "page_ns",
            baked: baked.page_ns,
            fitted: page_ns,
        },
        Fitted {
            name: "point_ns",
            baked: baked.point_ns,
            fitted: point_ns,
        },
        Fitted {
            name: "spawn_ns",
            baked: baked.spawn_ns,
            fitted: None,
        },
        Fitted {
            name: "parallel_efficiency",
            baked: baked.parallel_efficiency,
            fitted: None,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The calibrate experiment's own acceptance: the fit runs at smoke
    /// scale, every constant is covered and both decision-boundary rows
    /// are recorded. Nothing here reads the
    /// clock: a debug build beside parallel tests times nothing meaningful,
    /// so the sanity band stays with the CLI run and the latencies are
    /// only reported.
    #[test]
    fn calibrate_covers_every_constant_and_records_both_boundaries() {
        let ctx = ExperimentContext::smoke_test();
        let (fits, measured) = fit(&ctx);
        let reports = render(&fits, &measured);
        assert_eq!(reports.len(), 2);
        let [table, boundaries] = &reports[..] else {
            panic!("expected two reports");
        };
        // One row per constant.
        assert_eq!(table.rows.len(), 4);
        // Every fitted row has a numeric ratio; unfittable rows show '-'.
        assert!(table.rows.iter().any(|r| r[0] == "point_ns" && r[2] != "-"));
        assert!(table.rows.iter().all(|r| r[0] != "spawn_ns" || r[2] == "-"));
        // One row per batch.
        let batches: Vec<&str> = boundaries.rows.iter().map(|r| r[0].as_str()).collect();
        assert_eq!(batches, ["scattered", "overlapping"]);
    }
}
