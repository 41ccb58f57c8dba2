//! The benchmark's description: its workloads, its metrics with units,
//! directions and bounds, and `BENCHMARK.json`, which is generated from
//! these tables (`wazi-perf --list`).

/// Seconds one run measures for (`--seconds`, and `run_seconds`).
pub const RUN_SECONDS: u64 = 5;

/// Directory of the benchmark, relative to the repository root.
pub const PATH: &str = "wazi-perf";

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 8] = [
    WorkloadSpec {
        name: "range_scan",
        why: "direct range_count, four selectivities: the paper's headline; the storage scan filter dominates, so page layout and filter work show here",
    },
    WorkloadSpec {
        name: "point_probe",
        why: "direct point_query, half hits half misses: tree descent plus one page probe, almost no scan; the bypass for scan work",
    },
    WorkloadSpec {
        name: "batch_fused",
        why: "execute_batch (Auto) on hot-spot mixed batches of 128: the only place all three fused kernels and the kNN ring sweep dominate",
    },
    WorkloadSpec {
        name: "batch_scattered",
        why: "execute_batch (Auto) on 64 non-overlapping ranges: fusion cannot win, so Auto's planning and per-query descent are what is timed",
    },
    WorkloadSpec {
        name: "serve_solo",
        why: "service, 2 callers x 1 in flight, cheap traffic: latency-bound; coalescing window and thread wake-ups, untouched by per-op CPU savings",
    },
    WorkloadSpec {
        name: "serve_inproc",
        why: "service, 2 generators x 16 in flight, cheap traffic: throughput-bound; queue lock, tickets, batch formation and allocation dominate",
    },
    WorkloadSpec {
        name: "serve_tcp",
        why: "the serve_inproc traffic over loopback TCP, 2 connections x 16 in flight: frame codec, checksum, sockets and reader/writer hand-off",
    },
    WorkloadSpec {
        name: "serve_rw",
        why: "reads through a versioned index while one generator applies write bursts: page copy-on-write and version publish beside snapshot reads",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        lower_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_us",
        unit: "us",
        lower_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p99_us",
        unit: "us",
        lower_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        lower_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "index_bytes_per_point",
        unit: "B",
        lower_is_better: true,
        bound: 0.15,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        lower_is_better: true,
        bound: 0.25,
    },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        lower_is_better: true,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        lower_is_better: false,
    }
}

/// Span names of the traced trial and the self-time share each becomes.
/// The shares of one run sum to 1.
pub const SPAN_SHARES: [(&str, &str); 10] = [
    ("bench.op", "bench.op_self_share"),
    ("net.wire", "net.wire_self_share"),
    ("service.submit", "service.submit_self_share"),
    ("service.queue", "service.queue_share"),
    ("service.route", "service.route_share"),
    ("core.engine.batch", "core.engine.self_share"),
    ("core.zindex.call", "core.zindex.call_self_share"),
    ("core.zindex.projection", "core.zindex.projection_share"),
    ("storage.scan", "storage.scan_share"),
    ("core.snapshot.apply", "core.snapshot.apply_share"),
];

pub const PER_LAYER: [Layer; 93] = [
    // Self-time shares of the workload's traced trial, by layer.
    lower("bench.op_self_share", "share"),
    lower("net.wire_self_share", "share"),
    lower("service.submit_self_share", "share"),
    lower("service.queue_share", "share"),
    lower("service.route_share", "share"),
    lower("core.engine.self_share", "share"),
    lower("core.zindex.call_self_share", "share"),
    lower("core.zindex.projection_share", "share"),
    lower("storage.scan_share", "share"),
    lower("core.snapshot.apply_share", "share"),
    lower("core.snapshot.writer_busy_share", "share"),
    lower("bench.op_mean_us", "us"),
    lower("bench.spans_per_op", "count"),
    // Public counters of the workload's trials.
    lower("storage.pages_per_op", "count"),
    lower("storage.points_per_op", "count"),
    higher("storage.useful_point_share", "share"),
    lower("core.zindex.bbs_checked_per_op", "count"),
    higher("core.zindex.leaves_skipped_per_op", "count"),
    lower("core.zindex.nodes_visited_per_op", "count"),
    higher("core.engine.fused_query_share", "share"),
    higher("core.engine.pages_fused_share", "share"),
    higher("core.engine.shards_used_mean", "count"),
    higher("service.mean_batch_size", "count"),
    higher("service.max_batch_size", "count"),
    higher("service.capacity_cut_share", "share"),
    lower("service.timer_cut_share", "share"),
    lower("service.lost_tickets", "count"),
    lower("service.shed", "count"),
    lower("service.worker_restarts", "count"),
    lower("net.connections_leaked", "count"),
    lower("core.snapshot.live_epochs_max", "count"),
    lower("core.snapshot.rebuild_fallbacks", "count"),
    higher("core.snapshot.epochs_published", "count"),
    lower("proc.cpu_us_per_op", "us"),
    lower("proc.allocs_per_op", "count"),
    lower("proc.alloc_bytes_per_op", "B"),
    lower("proc.ctx_switches_per_op", "count"),
    lower("proc.threads_peak", "count"),
    lower("bench.trace_overhead_share", "share"),
    lower("bench.trial_spread_share", "share"),
    // Layer probes: each layer timed on its own on the run's data.
    lower("geom.rect_contains_ns", "ns"),
    lower("geom.rect_overlaps_ns", "ns"),
    lower("storage.filter_ns_per_point", "ns"),
    lower("storage.probe_ns_per_page", "ns"),
    lower("density.fit_s", "s"),
    lower("density.estimate_ns", "ns"),
    lower("core.build.wazi_s", "s"),
    lower("core.build.base_s", "s"),
    lower("core.build.leaves", "count"),
    lower("core.zindex.range_us_sel0016", "us"),
    lower("core.zindex.range_us_sel0064", "us"),
    lower("core.zindex.range_us_sel0256", "us"),
    lower("core.zindex.range_us_sel1024", "us"),
    lower("core.zindex.point_hit_ns", "ns"),
    lower("core.zindex.point_miss_ns", "ns"),
    lower("core.zindex.knn8_us", "us"),
    lower("core.wazi_vs_base.time_ratio", "ratio"),
    lower("core.wazi_vs_base.pages_ratio", "ratio"),
    lower("core.wazi_vs_base.bbs_ratio", "ratio"),
    lower("core.engine.overhead_ns_per_query", "ns"),
    lower("core.engine.auto_vs_sequential_ratio.scattered", "ratio"),
    lower("core.engine.auto_vs_sequential_ratio.fused", "ratio"),
    lower("core.engine.auto_vs_fused_ratio", "ratio"),
    lower("core.snapshot.read_overhead_ratio", "ratio"),
    lower("core.snapshot.pin_ns", "ns"),
    lower("core.snapshot.apply_us_per_burst", "us"),
    lower("core.snapshot.apply_ns_per_op", "ns"),
    lower("baselines.str.range_us", "us"),
    lower("baselines.str.pages_per_query", "count"),
    lower("baselines.cur.range_us", "us"),
    lower("baselines.cur.pages_per_query", "count"),
    lower("baselines.flood.range_us", "us"),
    lower("baselines.flood.pages_per_query", "count"),
    lower("baselines.quasii.range_us", "us"),
    lower("baselines.quasii.pages_per_query", "count"),
    lower("baselines.zpgm.range_us", "us"),
    lower("baselines.zpgm.pages_per_query", "count"),
    higher("baselines.best_vs_wazi.time_ratio", "ratio"),
    lower("workload.dataset_gen_s", "s"),
    lower("workload.query_gen_s", "s"),
    lower("service.submit_ns", "ns"),
    lower("service.idle_roundtrip_us", "us"),
    lower("net.connect_us", "us"),
    lower("net.rpc_roundtrip_p50_us", "us"),
    lower("net.client.retries", "count"),
    lower("net.client.reconnects", "count"),
    lower("net.wire.request_bytes", "B"),
    lower("net.wire.response_bytes", "B"),
    lower("net.wire.encode_request_ns", "ns"),
    lower("net.wire.decode_request_ns", "ns"),
    lower("net.wire.encode_response_ns", "ns"),
    lower("net.wire.decode_response_ns", "ns"),
    lower("net.wire.checksum_ns_per_kib", "ns"),
];

/// Layer metrics that must read 0 for a run to count as correct.
pub const MUST_BE_ZERO: [&str; 7] = [
    "service.lost_tickets",
    "service.shed",
    "service.worker_restarts",
    "net.connections_leaked",
    "core.snapshot.rebuild_fallbacks",
    "net.client.retries",
    "net.client.reconnects",
];

/// `inputs_digest` of every workload at seed 7, scale 1. A change to the
/// `wazi-workload` generators shows here before it shows in the numbers.
pub const PINNED_SEED: u64 = 7;
pub const PINNED_DIGESTS: [(&str, u64); 8] = [
    ("range_scan", 0x8f7e_590f_9763_7d30),
    ("point_probe", 0x07be_404e_de45_2e46),
    ("batch_fused", 0x9326_e160_3042_24c9),
    ("batch_scattered", 0x604c_18c7_ece8_0220),
    ("serve_solo", 0x953c_641f_d0cf_32ca),
    ("serve_inproc", 0x70d2_8cf7_026b_636c),
    ("serve_tcp", 0x0727_ebc5_8557_bcb5),
    ("serve_rw", 0xc8ac_d27f_e63a_3cde),
];

fn better(lower_is_better: bool) -> &'static str {
    if lower_is_better {
        "lower"
    } else {
        "higher"
    }
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut json = String::from("{\n");
    json += &format!(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"{PATH}/Cargo.toml\", \"--\"],\n"
    );
    json += &format!("  \"paths\": [\"{PATH}\"],\n");
    json += &format!("  \"run_seconds\": {RUN_SECONDS},\n");
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    json += &format!("  \"workloads\": [\n{}\n  ],\n", workloads.join(",\n"));
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                better(m.lower_is_better),
                m.bound
            )
        })
        .collect();
    json += &format!("  \"end_to_end\": [\n{}\n  ],\n", end_to_end.join(",\n"));
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                better(m.lower_is_better)
            )
        })
        .collect();
    json += &format!("  \"per_layer\": [\n{}\n  ]\n}}\n", per_layer.join(",\n"));
    json
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn valid_name(name: &str) -> bool {
        let allowed = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(allowed)
    }

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
        assert_eq!(names.iter().collect::<BTreeSet<_>>().len(), names.len());
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for unit in units {
            let allowed = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
            assert!(unit.len() <= 16 && unit.chars().all(allowed), "{unit}");
        }
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(setup.unit == "s" && setup.lower_is_better);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(PER_LAYER.len() <= 128 && benchmark_json().len() < 64 * 1024);
    }

    #[test]
    fn every_span_share_and_zero_gate_is_a_layer_metric() {
        let layer = |name: &str| PER_LAYER.iter().any(|m| m.name == name);
        assert!(SPAN_SHARES.iter().all(|(_, metric)| layer(metric)));
        assert!(MUST_BE_ZERO.iter().all(|name| layer(name)));
    }

    #[test]
    fn benchmark_json_at_the_repository_root_is_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `wazi-perf --list`"
        );
    }
}
