//! End-to-end smoke test of the reproduction harness: every registered
//! experiment runs at a tiny scale and produces well-formed reports. This is
//! the test that guards the `reproduce` binary's coverage of every table and
//! figure in the paper.

use wazi_bench::{registry, ExperimentContext};

#[test]
fn every_registered_experiment_runs_and_produces_rows() {
    let ctx = ExperimentContext {
        dataset_size: 2_000,
        workload_size: 40,
        training_size: 40,
        point_queries: 100,
        ..ExperimentContext::smoke_test()
    };
    for spec in registry() {
        let reports = (spec.run)(&ctx);
        assert!(
            !reports.is_empty(),
            "experiment {} produced no reports",
            spec.id
        );
        for report in &reports {
            assert!(!report.rows.is_empty(), "{}: empty table", report.id);
            for row in &report.rows {
                assert_eq!(
                    row.len(),
                    report.headers.len(),
                    "{}: row arity mismatch",
                    report.id
                );
                assert!(row.iter().all(|cell| !cell.is_empty()));
            }
            // Reports must render and serialise.
            let text = report.to_string();
            assert!(text.contains(&report.title));
            let json = report.to_json();
            assert!(json.contains(&report.id));
        }
    }
}

#[test]
fn the_registry_covers_every_table_and_figure_of_the_paper() {
    let ids: Vec<&str> = registry().iter().map(|s| s.id).collect();
    for required in [
        "table1", "table2", "table3", "table4", "table5", "figure4", "figure6", "figure7",
        "figure8", "figure9", "figure10", "figure11", "figure12", "figure13",
    ] {
        assert!(ids.contains(&required), "missing experiment {required}");
    }
}
