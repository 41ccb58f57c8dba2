//! Tables 1 and 2: static descriptions of the evaluation setup.

use super::ExperimentContext;
use crate::report::Report;
use crate::suite::IndexKind;
use wazi_workload::SELECTIVITIES;

/// Table 1: key properties of the compared indexes.
pub fn table1(_ctx: &ExperimentContext) -> Vec<Report> {
    let mut report = Report::new("table1", "Key properties of indexes in the experiments")
        .with_headers(&["Index", "SFC-based", "Query-Aware", "Learned"]);
    for kind in IndexKind::PRIMARY {
        let (sfc, query_aware, learned) = kind.properties();
        report.push_row(vec![
            kind.name().to_string(),
            tick(sfc),
            tick(query_aware),
            tick(learned),
        ]);
    }
    report.push_note("matches Table 1 of the paper by construction");
    vec![report]
}

/// Table 2: parameter settings actually used by this run, next to the
/// paper's values.
pub fn table2(ctx: &ExperimentContext) -> Vec<Report> {
    let mut report = Report::new("table2", "Parameter setting").with_headers(&[
        "Parameter",
        "Paper",
        "This run",
    ]);
    let sweep: Vec<String> = ctx.size_sweep().iter().map(|s| s.to_string()).collect();
    report.push_row(vec![
        "Dataset size".into(),
        "[4, 8, 16, 32, 64] x 10^6 (default 32M)".into(),
        format!("[{}] (default {})", sweep.join(", "), ctx.dataset_size),
    ]);
    report.push_row(vec![
        "Query selectivity (%)".into(),
        "[0.0016, 0.0064, 0.0256, 0.1024]".into(),
        SELECTIVITIES
            .iter()
            .map(|s| format!("{:.4}", s * 100.0))
            .collect::<Vec<_>>()
            .join(", "),
    ]);
    report.push_row(vec![
        "Leaf-node size".into(),
        "256".into(),
        ctx.leaf_capacity.to_string(),
    ]);
    report.push_row(vec![
        "Range-query workload size".into(),
        "20,000".into(),
        ctx.workload_size.to_string(),
    ]);
    report.push_row(vec![
        "Point queries".into(),
        "50,000".into(),
        ctx.point_queries.to_string(),
    ]);
    report.push_note(
        "datasets and workloads are synthetic stand-ins for OSM/Gowalla; see the \
         wazi_workload dataset and queries module docs",
    );
    vec![report]
}

fn tick(value: bool) -> String {
    if value { "yes" } else { "-" }.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_lists_the_six_primary_indexes() {
        let reports = table1(&ExperimentContext::smoke_test());
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].rows.len(), 6);
        let wazi_row = reports[0]
            .rows
            .iter()
            .find(|r| r[0] == "WaZI")
            .expect("WaZI row");
        assert_eq!(wazi_row[1..], ["yes", "yes", "yes"]);
    }

    #[test]
    fn table2_reflects_the_context() {
        let ctx = ExperimentContext::smoke_test();
        let reports = table2(&ctx);
        let text = reports[0].to_string();
        assert!(text.contains("Leaf-node size"));
        assert!(text.contains(&ctx.leaf_capacity.to_string()));
        assert!(text.contains("0.0016"));
    }
}
