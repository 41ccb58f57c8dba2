//! One module per table/figure of the paper's evaluation (Section 6).
//!
//! Every experiment is a function taking an [`ExperimentContext`] and
//! returning one or more [`Report`]s. The `reproduce` binary dispatches on
//! experiment identifiers; DESIGN.md §2 maps each identifier to the paper's
//! table or figure.

pub mod ablation;
pub mod batch;
pub mod build;
pub mod calibrate;
pub mod point;
pub mod properties;
pub mod range;
pub mod service;
pub mod updates;

use crate::report::Report;

/// Global knobs of an experiment run. The defaults are laptop-scale
/// stand-ins for the paper's server-scale parameters (Table 2); the
/// `reproduce` binary exposes them as command-line flags so paper-scale runs
/// remain possible.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentContext {
    /// Default dataset size (the paper's default is 32 million).
    pub dataset_size: usize,
    /// Number of evaluation range queries per workload (paper: 20 000).
    pub workload_size: usize,
    /// Number of training queries handed to query-aware indexes.
    pub training_size: usize,
    /// Number of point queries (paper: 50 000).
    pub point_queries: usize,
    /// Leaf capacity `L` (paper: 256).
    pub leaf_capacity: usize,
    /// Base seed mixed into every generator.
    pub seed: u64,
    /// Shard count used by the batch experiment's `FusedParallel` rows
    /// (the `reproduce --shards N` flag).
    pub batch_shards: usize,
}

impl Default for ExperimentContext {
    fn default() -> Self {
        Self {
            dataset_size: 100_000,
            workload_size: 2_000,
            training_size: 2_000,
            point_queries: 5_000,
            leaf_capacity: 256,
            seed: 7,
            batch_shards: 4,
        }
    }
}

impl ExperimentContext {
    /// A very small context used by unit and integration tests and by
    /// `reproduce --smoke`.
    pub fn smoke_test() -> Self {
        Self {
            dataset_size: 4_000,
            workload_size: 100,
            training_size: 100,
            point_queries: 200,
            leaf_capacity: 64,
            seed: 7,
            batch_shards: 4,
        }
    }

    /// The dataset-size sweep of Figures 8 and 10 and Tables 3 and 5,
    /// scaled around the context's default size the same way the paper
    /// sweeps 4–64 million around its 16/32-million defaults.
    pub fn size_sweep(&self) -> Vec<usize> {
        [1usize, 2, 4, 8, 16]
            .iter()
            .map(|f| (self.dataset_size / 4) * f)
            .filter(|&n| n > 0)
            .collect()
    }
}

/// Generates the dataset, training workload and (disjoint but identically
/// distributed) evaluation workload for one region at one selectivity.
pub(crate) fn workload_setup(
    ctx: &ExperimentContext,
    region: wazi_workload::Region,
    selectivity: f64,
    dataset_size: usize,
) -> (
    Vec<wazi_geom::Point>,
    Vec<wazi_geom::Rect>,
    Vec<wazi_geom::Rect>,
) {
    let points = wazi_workload::generate_dataset_with_seed(region, dataset_size, region.seed());
    let train = wazi_workload::generate_queries_with_seed(
        region,
        ctx.training_size,
        selectivity,
        region.seed() ^ ctx.seed,
    );
    let eval = wazi_workload::generate_queries_with_seed(
        region,
        ctx.workload_size,
        selectivity,
        region.seed() ^ ctx.seed ^ 0xABCD_EF01,
    );
    (points, train, eval)
}

/// Identifier, description and runner of one experiment.
pub struct ExperimentSpec {
    /// Identifier accepted by the `reproduce` binary (e.g. `"figure6"`).
    pub id: &'static str,
    /// What the experiment reproduces.
    pub description: &'static str,
    /// Runner producing one or more reports.
    pub run: fn(&ExperimentContext) -> Vec<Report>,
}

/// The registry of every experiment, in the order the paper presents them.
pub fn registry() -> Vec<ExperimentSpec> {
    vec![
        ExperimentSpec {
            id: "table1",
            description: "Key properties of the compared indexes (Table 1)",
            run: properties::table1,
        },
        ExperimentSpec {
            id: "table2",
            description: "Parameter settings of the evaluation (Table 2)",
            run: properties::table2,
        },
        ExperimentSpec {
            id: "figure4",
            description:
                "Average range-query latency of all indexes incl. rank-space Z-order (Figure 4)",
            run: range::figure4,
        },
        ExperimentSpec {
            id: "figure6",
            description: "Range-query latency per dataset and selectivity (Figure 6)",
            run: range::figure6,
        },
        ExperimentSpec {
            id: "figure7",
            description: "Percentage improvement over Base (Figure 7)",
            run: range::figure7,
        },
        ExperimentSpec {
            id: "figure8",
            description: "Range-query latency over dataset sizes (Figure 8)",
            run: range::figure8,
        },
        ExperimentSpec {
            id: "figure9",
            description: "Projection vs scan split of range-query time (Figure 9)",
            run: range::figure9,
        },
        ExperimentSpec {
            id: "figure10",
            description: "Point-query latency over dataset sizes (Figure 10)",
            run: point::figure10,
        },
        ExperimentSpec {
            id: "table3",
            description: "Index build times (Table 3)",
            run: build::table3,
        },
        ExperimentSpec {
            id: "table4",
            description: "Cost redemption against Base (Table 4)",
            run: build::table4,
        },
        ExperimentSpec {
            id: "table5",
            description: "Index sizes (Table 5)",
            run: build::table5,
        },
        ExperimentSpec {
            id: "figure11",
            description: "Insert latency and range latency under inserts (Figure 11)",
            run: updates::figure11,
        },
        ExperimentSpec {
            id: "figure12",
            description: "Range-query latency under workload change (Figure 12)",
            run: updates::figure12,
        },
        ExperimentSpec {
            id: "figure13",
            description: "Ablation study: partitioning vs skipping (Figure 13)",
            run: ablation::figure13,
        },
        ExperimentSpec {
            id: "ablation-extra",
            description: "Extra ablations beyond the paper: kappa, alpha and density estimation",
            run: ablation::extra,
        },
        ExperimentSpec {
            id: "batch",
            description: "Sequential vs fused vs parallel vs cost-based auto batched execution \
                 through the engine, with a shard-count sweep (BENCH_batch.json)",
            run: batch::batch,
        },
        ExperimentSpec {
            id: "calibrate",
            description: "Cost-model calibration: micro-fit the per-kernel constants and check \
                 the decision boundaries (BENCH_calibrate.json)",
            run: calibrate::calibrate,
        },
        ExperimentSpec {
            id: "service",
            description: "Concurrent query service under offered load: adaptive micro-batching \
                 vs per-query dispatch, throughput and tail latency (BENCH_service.json)",
            run: service::service,
        },
    ]
}

/// Looks up experiments by identifier (`"all"` returns the full registry).
pub fn select(ids: &[String]) -> Vec<ExperimentSpec> {
    let registry = registry();
    if ids.is_empty() || ids.iter().any(|i| i == "all") {
        return registry;
    }
    registry
        .into_iter()
        .filter(|spec| ids.iter().any(|i| i == spec.id))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_selectable() {
        let registry = registry();
        let mut ids: Vec<&str> = registry.iter().map(|s| s.id).collect();
        assert!(ids.len() >= 15, "every table and figure must be present");
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), registry.len(), "ids must be unique");

        assert!(
            registry.iter().any(|s| s.id == "service"),
            "the service experiment must be registered"
        );
        let picked = select(&["figure6".to_string(), "table3".to_string()]);
        assert_eq!(picked.len(), 2);
        let all = select(&["all".to_string()]);
        assert_eq!(all.len(), registry.len());
        assert!(select(&["nonsense".to_string()]).is_empty());
    }

    #[test]
    fn size_sweep_scales_with_context() {
        let ctx = ExperimentContext::default();
        let sweep = ctx.size_sweep();
        assert_eq!(sweep.len(), 5);
        assert_eq!(sweep[0] * 16, sweep[4]);
        assert_eq!(sweep[2], ctx.dataset_size);
    }
}
