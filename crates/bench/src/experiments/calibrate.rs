//! Cost-model calibration: where the numbers in
//! [`wazi_core::CalibrationTable::BAKED`] come from, and how to check them
//! on the host you are running on.
//!
//! The engine's [`wazi_core::BatchStrategy::Auto`] scheduler prices each
//! candidate schedule with per-kernel-class constants (nanoseconds per
//! request, per page fetch, per point comparison, ...). Those constants are
//! baked into the core crate so scheduling never needs a warm-up run — but
//! baked numbers age with hardware, so this experiment re-fits them from
//! targeted micro-measurements on two representative indexes (WaZI for the
//! page-backed class, Zpgm for the flat-array class), prints
//! baked-versus-fitted per constant, and *asserts* the two things that must
//! hold regardless of the hardware:
//!
//! * each fitted constant is within a loose sanity band of its baked value
//!   (an order-of-magnitude drift means the model's units are wrong, not
//!   that the machine is fast), and
//! * the decision boundaries come out right on the workloads built to pin
//!   them — Zpgm routes a scattered flat-array batch through the per-query
//!   loop and measures at least as fast there, while WaZI fuses a heavily
//!   overlapping batch and measures at least as fast fused.
//!
//! `reproduce calibrate --json BENCH_calibrate.json` regenerates the
//! committed table; re-baking after a hardware change is a copy-paste of
//! the fitted column into `engine/cost.rs`.

use super::{workload_setup, ExperimentContext};
use crate::measure::{format_ns, measure_warm, BatchMeasurement};
use crate::report::Report;
use crate::suite::{build_index, IndexKind};
use wazi_core::{BatchStrategy, CalibrationTable, ChosenStrategy, CostConstants};
use wazi_workload::{generate_overlapping_batch, generate_scattered_batch, Region, SELECTIVITIES};

/// Region and selectivities mirrored from the batch experiment, so the
/// calibration workloads are the decision workloads.
const CALIBRATE_REGION: Region = Region::NewYork;
const OVERLAP_SELECTIVITY: f64 = SELECTIVITIES[3];
const SCATTERED_SELECTIVITY: f64 = SELECTIVITIES[0];

/// Sizes of the fitting batches: large enough that per-request terms
/// dominate timer resolution, small enough for a `--smoke` CI job.
const FIT_BATCH: usize = 512;

/// A fitted constant may drift this factor from its baked value in either
/// direction before the sanity assert trips: calibration tracks hardware,
/// the assert only catches unit-level mistakes.
const SANITY_BAND: f64 = 64.0;

/// Wall-clock slack for the decision-boundary asserts, absorbing scheduler
/// noise on sub-millisecond smoke batches.
const BOUNDARY_SLACK_NS: u64 = 2_000_000;

/// One fitted constant: `None` means the host cannot fit it (for example
/// the parallel constants on a single-core container) and the baked value
/// stands.
struct Fitted {
    class: &'static str,
    name: &'static str,
    baked: f64,
    fitted: Option<f64>,
}

impl Fitted {
    /// Fitted over baked, when this host could fit the constant.
    fn ratio(&self) -> Option<f64> {
        let fitted = self.fitted?;
        Some(if self.baked > 0.0 {
            fitted / self.baked
        } else {
            0.0
        })
    }
}

/// One decision-boundary row: what Auto chose for `batch` on `kind`, beside
/// the measured latency of every candidate.
struct Boundary {
    kind: IndexKind,
    batch: &'static str,
    chosen: ChosenStrategy,
    sequential_ns: u64,
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

/// Per-request setup costs fitted from a scattered batch: subtract the
/// already-fitted data-touching terms from the batch latency and divide
/// what remains across the requests.
fn fit_per_query_ns(m: &BatchMeasurement, point_ns: f64, page_ns: f64) -> Option<f64> {
    let data_ns =
        m.totals.points_scanned as f64 * point_ns + m.totals.pages_scanned as f64 * page_ns;
    let residual = m.batch_latency_ns as f64 - data_ns;
    (m.queries > 0 && residual > 0.0).then(|| residual / m.queries as f64)
}

/// Runs the experiment: the fit, the checks that depend on this host's
/// clock, and the report.
pub fn calibrate(ctx: &ExperimentContext) -> Vec<Report> {
    let (fits, boundaries) = fit(ctx);
    check_against_the_clock(&fits, &boundaries);
    render(&fits, &boundaries)
}

/// Fits the page-backed class on WaZI and the flat class on Zpgm, returning
/// the per-class constant rows and the decision-boundary measurements.
/// Asserts only what no clock can change: which strategy Auto *chose* on the
/// two workloads built to pin the boundaries.
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

    let mut fits = Vec::new();
    let mut boundaries = Vec::new();
    for (kind, class, baked) in [
        (
            IndexKind::Wazi,
            "page-backed",
            CalibrationTable::BAKED.page_backed,
        ),
        (IndexKind::Zpgm, "flat", CalibrationTable::BAKED.flat),
    ] {
        let built = build_index(kind, &points, &train, ctx.leaf_capacity);
        let index = built.index.as_ref();

        let seq_o = measure_warm(index, &overlapping, BatchStrategy::Sequential);
        let point_ns = fit_point_ns(&seq_o);
        // The page term only exists for the page-backed class; attribute a
        // leaf-capacity's worth of point cost per fetch as its loose fit.
        let page_ns = match kind {
            IndexKind::Wazi => point_ns.map(|p| p * ctx.leaf_capacity as f64 * 0.25),
            _ => None,
        };
        let seq_m = measure_warm(index, &scattered, BatchStrategy::Sequential);
        let fused_m = measure_warm(index, &scattered, BatchStrategy::Fused);
        let auto_m = measure_warm(index, &scattered, BatchStrategy::Auto);
        let seq_query_ns = fit_per_query_ns(
            &seq_m,
            point_ns.unwrap_or(baked.point_ns),
            page_ns.unwrap_or(baked.page_ns),
        );
        let fused_query_ns = fit_per_query_ns(
            &fused_m,
            point_ns.unwrap_or(baked.point_ns),
            page_ns.unwrap_or(baked.page_ns),
        )
        // The fused sweep must price above the sequential loop per
        // request, or tiny disjoint batches would fuse: clamp the fit to
        // preserve the model's structural invariant.
        .map(|ns| ns.max(seq_query_ns.unwrap_or(0.0) * 1.1));
        fits.extend(constants_rows(
            class,
            &baked,
            point_ns,
            page_ns,
            seq_query_ns,
            fused_query_ns,
        ));

        // Decision boundaries. Scattered: the flat class must go
        // sequential; fused setup has nothing to amortise against on
        // either class.
        let chosen = auto_m
            .decisions
            .range
            .map(|d| d.chosen)
            .expect("the scattered batch has a range partition to decide");
        if kind == IndexKind::Zpgm {
            assert_ne!(
                chosen,
                ChosenStrategy::Fused,
                "calibration boundary: Zpgm's scattered batch must not take the \
                 plain fused sweep"
            );
        }
        boundaries.push(Boundary {
            kind,
            batch: "scattered",
            chosen,
            sequential_ns: seq_m.batch_latency_ns,
            fused_ns: fused_m.batch_latency_ns,
            auto_ns: auto_m.batch_latency_ns,
        });

        // Overlapping: the page-backed class must fuse.
        let fused_o = measure_warm(index, &overlapping, BatchStrategy::Fused);
        let auto_o = measure_warm(index, &overlapping, BatchStrategy::Auto);
        let chosen_o = auto_o
            .decisions
            .range
            .map(|d| d.chosen)
            .expect("the overlapping batch has a range partition to decide");
        if kind == IndexKind::Wazi {
            assert_ne!(
                chosen_o,
                ChosenStrategy::Sequential,
                "calibration boundary: WaZI's heavily overlapping batch must fuse"
            );
        }
        boundaries.push(Boundary {
            kind,
            batch: "overlapping",
            chosen: chosen_o,
            sequential_ns: seq_o.batch_latency_ns,
            fused_ns: fused_o.batch_latency_ns,
            auto_ns: auto_o.batch_latency_ns,
        });
    }
    (fits, boundaries)
}

/// The checks that read this host's clock: every fitted constant inside the
/// sanity band of its baked value, and each class measuring no slower on
/// the side of its boundary the model sends it to. Meaningful on a release
/// build with the machine to itself (the CLI run), noise anywhere else.
fn check_against_the_clock(fits: &[Fitted], boundaries: &[Boundary]) {
    for fit in fits {
        let (Some(f), Some(ratio)) = (fit.fitted, fit.ratio()) else {
            continue;
        };
        assert!(
            ratio < SANITY_BAND && (ratio > 1.0 / SANITY_BAND || fit.baked == 0.0),
            "{}/{}: fitted {f:.1} ns is outside the sanity band of baked {:.1} ns",
            fit.class,
            fit.name,
            fit.baked
        );
    }
    for b in boundaries {
        match (b.kind, b.batch) {
            (IndexKind::Zpgm, "scattered") => assert!(
                b.sequential_ns <= b.fused_ns + BOUNDARY_SLACK_NS,
                "calibration boundary: Zpgm's sequential scattered batch ({}) \
                 measured slower than fused ({}) — the flat-class model is wrong",
                format_ns(b.sequential_ns as f64),
                format_ns(b.fused_ns as f64)
            ),
            (IndexKind::Wazi, "overlapping") => assert!(
                b.fused_ns <= b.sequential_ns + BOUNDARY_SLACK_NS,
                "calibration boundary: WaZI's fused overlapping batch ({}) measured \
                 slower than sequential ({}) — the page-backed model is wrong",
                format_ns(b.fused_ns as f64),
                format_ns(b.sequential_ns as f64)
            ),
            _ => {}
        }
    }
}

/// Lays the fit out as the two report tables.
fn render(fits: &[Fitted], boundaries: &[Boundary]) -> Vec<Report> {
    let mut table = Report::new(
        "calibrate-constants",
        "Cost-model constants: baked (engine/cost.rs) vs fitted on this host",
    )
    .with_headers(&["Class", "Constant", "Baked", "Fitted", "Ratio"]);
    for fit in fits {
        let (fitted_cell, ratio_cell) = match (fit.fitted, fit.ratio()) {
            (Some(f), Some(ratio)) => (format!("{f:.1}"), format!("{ratio:.2}x")),
            _ => ("-".to_string(), "-".to_string()),
        };
        table.push_row(vec![
            fit.class.to_string(),
            fit.name.to_string(),
            format!("{:.1}", fit.baked),
            fitted_cell,
            ratio_cell,
        ]);
    }
    let mut boundary_table = Report::new(
        "calibrate-boundaries",
        "Decision boundaries under the baked table on this host",
    )
    .with_headers(&["Index", "Batch", "Chosen", "Sequential", "Fused", "Auto"]);
    for b in boundaries {
        boundary_table.push_row(vec![
            b.kind.name().to_string(),
            b.batch.to_string(),
            b.chosen.to_string(),
            format_ns(b.sequential_ns as f64),
            format_ns(b.fused_ns as f64),
            format_ns(b.auto_ns as f64),
        ]);
    }

    table.push_note(format!(
        "fits: point_ns from the sequential overlapping batch (latency / points charged: \
         the effective cost at that query set's share of pages accepted whole, not the \
         cost of one comparison), page_ns as a quarter leaf-capacity of point cost per \
         fetch, per-request constants from a \
         {FIT_BATCH}-query scattered batch after subtracting the fitted data-touching \
         terms; '-' marks constants this host cannot fit (the parallel constants need \
         worker threads — available_parallelism = {}). Asserted: every fitted constant \
         within {SANITY_BAND:.0}x of its baked value. To re-bake after a hardware \
         change, copy the fitted column into CalibrationTable::BAKED (engine/cost.rs) \
         and re-run `reproduce batch`",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    boundary_table.push_note(
        "asserted: Zpgm (flat class) never takes the plain fused sweep on the \
         scattered batch and measures sequential <= fused there; WaZI (page-backed) \
         fuses the overlapping batch and measures fused <= sequential. These are the \
         decision boundaries the Auto scheduler exists to get right — a violation \
         fails the run, baked constants or not",
    );
    vec![table, boundary_table]
}

/// Lays out the per-class constant rows: fitted where this host could
/// measure, `None` (baked stands) elsewhere.
fn constants_rows(
    class: &'static str,
    baked: &CostConstants,
    point_ns: Option<f64>,
    page_ns: Option<f64>,
    seq_query_ns: Option<f64>,
    fused_query_ns: Option<f64>,
) -> Vec<Fitted> {
    vec![
        Fitted {
            class,
            name: "seq_query_ns",
            baked: baked.seq_query_ns,
            fitted: seq_query_ns,
        },
        Fitted {
            class,
            name: "fused_query_ns",
            baked: baked.fused_query_ns,
            fitted: fused_query_ns,
        },
        Fitted {
            class,
            name: "page_ns",
            baked: baked.page_ns,
            fitted: page_ns,
        },
        Fitted {
            class,
            name: "check_ns",
            baked: baked.check_ns,
            fitted: None,
        },
        Fitted {
            class,
            name: "point_ns",
            baked: baked.point_ns,
            fitted: point_ns,
        },
        Fitted {
            class,
            name: "fused_point_penalty_ns",
            baked: baked.fused_point_penalty_ns,
            fitted: None,
        },
        Fitted {
            class,
            name: "spawn_ns",
            baked: baked.spawn_ns,
            fitted: None,
        },
        Fitted {
            class,
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
    /// scale, Auto lands on the right side of both decision boundaries (the
    /// asserts inside `fit`), every constant of both classes is covered and
    /// all four decision-boundary rows are recorded. Nothing here reads the
    /// clock: a debug build beside parallel tests times nothing meaningful,
    /// so the sanity band and the latency comparisons stay with the CLI run.
    #[test]
    fn calibrate_fits_both_classes_and_checks_the_boundaries() {
        let ctx = ExperimentContext::smoke_test();
        let (fits, measured) = fit(&ctx);
        let reports = render(&fits, &measured);
        assert_eq!(reports.len(), 2);
        let [table, boundaries] = &reports[..] else {
            panic!("expected two reports");
        };
        // Eight constants per class, two classes.
        assert_eq!(table.rows.len(), 16);
        // Every fitted row has a numeric ratio; unfittable rows show '-'.
        assert!(table.rows.iter().any(|r| r[1] == "point_ns" && r[3] != "-"));
        assert!(table.rows.iter().all(|r| r[1] != "spawn_ns" || r[3] == "-"));
        // Two batches per representative index.
        assert_eq!(boundaries.rows.len(), 4);
        for (index, batch) in [
            ("wazi", "scattered"),
            ("wazi", "overlapping"),
            ("zpgm", "scattered"),
            ("zpgm", "overlapping"),
        ] {
            assert!(
                boundaries
                    .rows
                    .iter()
                    .any(|r| r[0].to_lowercase().contains(index) && r[1] == batch),
                "missing {index}/{batch} boundary row"
            );
        }
    }
}
