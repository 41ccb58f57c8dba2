//! # wazi
//!
//! Facade crate of the WaZI reproduction (Pai, Mathioudakis & Wang,
//! EDBT 2024). It re-exports the workspace crates so simple consumers can
//! depend on a single crate, and it owns the repository-level integration
//! tests (`tests/`) and runnable examples (`examples/`).
//!
//! The layering, bottom to top (see ROADMAP.md, "Architecture"):
//!
//! * [`geom`] — points, rectangles, quadrant/ordering geometry, Morton codes;
//! * [`storage`] — clustered pages with visitor-based scan primitives and
//!   the [`storage::ExecStats`] work counters;
//! * [`density`] — RFDE cardinality estimation used during construction;
//! * [`core`] — the generalized Z-index (Base and WaZI), the
//!   [`core::SpatialIndex`] trait with its layered query-execution engine,
//!   and the typed query-plan [`core::QueryEngine`] with sequential and
//!   fused batch execution;
//! * [`baselines`] — the six competitor indexes of the evaluation;
//! * [`workload`] — deterministic dataset and query-workload generators,
//!   including the open-loop arrival schedules driving the service bench;
//! * [`service`] — the concurrent query service coalescing submissions
//!   into fused engine batches under an adaptive micro-batching window
//!   (`docs/SERVICE.md`);
//! * [`net`] — the hardened TCP front end over the service: checksummed
//!   length-prefixed framing, per-connection deadlines, graceful drain,
//!   a retrying client, and wire-level fault injection — the wire
//!   changes transport, never answers;
//! * [`mod@bench`] — the experiment harness reproducing every table and
//!   figure, including the `batch` experiment comparing sequential vs fused
//!   batch execution and the `service` experiment measuring the service
//!   under offered load; `reproduce <exp> --json BENCH_<exp>.json`
//!   regenerates the committed artifacts, and no run writes unless asked.
//!
//! Entry points for humans: the repository README for the quickstart and
//! pointer map, `docs/ENGINE.md` for the batch-execution pipeline guide,
//! and `ROADMAP.md` for the architecture narrative and open items.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use wazi_baselines as baselines;
pub use wazi_bench as bench;
pub use wazi_core as core;
pub use wazi_density as density;
pub use wazi_geom as geom;
pub use wazi_net as net;
pub use wazi_service as service;
pub use wazi_storage as storage;
pub use wazi_workload as workload;

// The types almost every consumer needs, flattened to the crate root.
pub use wazi_core::{
    BatchReport, BatchStrategy, EngineError, Query, QueryEngine, QueryOutput, QueryReport,
    RangeMode, SpatialIndex, ZIndex, ZIndexBuilder, ZIndexConfig,
};
pub use wazi_geom::{Point, Rect};
pub use wazi_net::{Client, NetError, Server};
pub use wazi_service::{Service, ServiceStats};
pub use wazi_storage::ExecStats;
