//! Regenerates the tables and figures of the WaZI paper's evaluation.
//!
//! ```text
//! reproduce [EXPERIMENT ...] [--size N] [--queries N] [--points N]
//!           [--leaf N] [--shards N] [--smoke] [--json PATH] [--list]
//!
//! EXPERIMENT   one or more of the identifiers printed by --list
//!              (default: all)
//! --size N     default dataset size (default 100000)
//! --queries N  evaluation/training workload size (default 2000)
//! --points N   number of point queries (default 5000)
//! --leaf N     leaf capacity L (default 256)
//! --shards N   shard count for the batch experiment's FusedParallel rows
//!              (default 4)
//! --smoke      start from the tiny smoke-scale context (CI's
//!              configuration; later flags still override individual knobs)
//! --json PATH  also write all reports as a JSON array to PATH — the only
//!              file a run writes (`BENCH_<exp>.json` is regenerated by
//!              `reproduce <exp> --json BENCH_<exp>.json`)
//! --list       print the available experiments and exit
//! ```

use std::io::Write;
use wazi_bench::{select, ExperimentContext};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // --smoke rebases the whole context, so resolve it before the other
    // flags are applied on top.
    let mut ctx = if args.iter().any(|a| a == "--smoke") {
        ExperimentContext::smoke_test()
    } else {
        ExperimentContext::default()
    };
    let mut experiment_ids: Vec<String> = Vec::new();
    let mut json_path: Option<String> = None;
    let mut list_only = false;

    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--size" => ctx.dataset_size = parse_number(iter.next(), "--size"),
            "--queries" => {
                let n = parse_number(iter.next(), "--queries");
                ctx.workload_size = n;
                ctx.training_size = n;
            }
            "--points" => ctx.point_queries = parse_number(iter.next(), "--points"),
            "--leaf" => ctx.leaf_capacity = parse_number(iter.next(), "--leaf"),
            "--shards" => ctx.batch_shards = parse_number(iter.next(), "--shards"),
            "--smoke" => {} // already applied above
            "--json" => json_path = iter.next(),
            "--list" => list_only = true,
            "--help" | "-h" => {
                print_usage();
                return;
            }
            other if other.starts_with("--") => {
                eprintln!("unknown flag {other}");
                print_usage();
                std::process::exit(2);
            }
            other => experiment_ids.push(other.to_string()),
        }
    }

    if list_only {
        for spec in wazi_bench::registry() {
            println!("{:<16} {}", spec.id, spec.description);
        }
        return;
    }

    let selected = select(&experiment_ids);
    if selected.is_empty() {
        eprintln!("no experiment matches {experiment_ids:?}; registered experiments:");
        for spec in wazi_bench::registry() {
            eprintln!("  {:<16} {}", spec.id, spec.description);
        }
        std::process::exit(2);
    }

    println!(
        "# WaZI reproduction harness: {} experiment(s), {} points, {} queries, L = {}",
        selected.len(),
        ctx.dataset_size,
        ctx.workload_size,
        ctx.leaf_capacity
    );
    let mut all_reports = Vec::new();
    for spec in selected {
        eprintln!(">> running {} — {}", spec.id, spec.description);
        let started = std::time::Instant::now();
        let reports = (spec.run)(&ctx);
        eprintln!("   done in {:.1}s", started.elapsed().as_secs_f64());
        for report in &reports {
            println!("{report}");
        }
        all_reports.extend(reports);
    }

    if let Some(path) = json_path {
        let json = wazi_bench::Report::json_array(&all_reports);
        let mut file =
            std::fs::File::create(&path).unwrap_or_else(|e| panic!("cannot create {path}: {e}"));
        file.write_all(json.as_bytes())
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        eprintln!("wrote {} reports to {path}", all_reports.len());
    }
}

fn parse_number(value: Option<String>, flag: &str) -> usize {
    value
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("{flag} requires a positive integer argument"))
}

fn print_usage() {
    println!(
        "usage: reproduce [EXPERIMENT ...] [--size N] [--queries N] [--points N] [--leaf N] \
         [--shards N] [--smoke] [--json PATH] [--list]"
    );
}
