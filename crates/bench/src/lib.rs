//! # wazi-bench
//!
//! The experiment harness reproducing every table and figure of the WaZI
//! paper's evaluation (Section 6). The crate provides:
//!
//! * [`suite`] — uniform construction of every compared index;
//! * [`measure`] — latency/work measurement helpers;
//! * [`experiments`] — one runner per table/figure, returning printable
//!   [`report::Report`]s;
//! * the `reproduce` binary — `cargo run --release -p wazi-bench --bin
//!   reproduce -- all` regenerates every table and figure at laptop scale
//!   (use `--size` to scale up towards the paper's setting).
//!
//! Closed-loop timings of the whole query path, layer by layer, come from
//! the standalone `wazi-perf` benchmark at the repository root.
//!
//! Beyond the paper, the `batch` experiment compares sequential, fused,
//! parallel-fused and cost-based Auto batch execution across all seven
//! overview indexes; it hard-asserts the engine's fusion contract —
//! identical results, never more pages or bounding-box checks than
//! sequential — so CI fails on any divergence. The `service` experiment
//! drives the `wazi-service` concurrent query service, in-process and over
//! loopback TCP, from one open-loop replay driver; it hard-asserts that
//! every routed response is bit-identical to solo execution and that
//! adaptive micro-batching beats per-query dispatch at saturating offered
//! load.
//!
//! Experiments only return reports. The committed artifacts at the
//! repository root are regenerated with `reproduce <exp> --json
//! BENCH_<exp>.json` (`batch`, `calibrate`, `service`); no run writes a file
//! unless asked.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod measure;
pub mod report;
pub mod suite;

pub use experiments::{registry, select, ExperimentContext, ExperimentSpec};
pub use report::Report;
pub use suite::{build_index, build_versioned_index, BuiltIndex, IndexKind};
