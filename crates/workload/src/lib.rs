//! # wazi-workload
//!
//! Dataset and range-query workload generators replicating the evaluation
//! setup of the WaZI paper (Section 6.2):
//!
//! * [`Region`] — four regional profiles standing in for the OpenStreetMap
//!   POI extracts (CaliNev, NewYork, Japan, Iberia);
//! * [`generate_dataset`] — seeded multi-modal point distributions;
//! * [`generate_queries`] — skewed range-query workloads whose centres
//!   follow a Gowalla-check-in-like distribution that differs from the data
//!   distribution, with selectivity expressed as a fraction of the data
//!   space;
//! * [`uniform_queries`] / [`drift_workload`] — the workload-change
//!   machinery of Figure 12;
//! * [`uniform_dataset`] / [`sample_point_queries`] — inputs for the insert
//!   (Figure 11) and point-query (Figure 10) experiments;
//! * [`generate_mixed_batch`] / [`generate_overlapping_batch`] /
//!   [`generate_scattered_batch`] / [`generate_point_batch`] /
//!   [`generate_knn_batch`] — deterministic
//!   batches of typed [`wazi_core::Query`] plans for the query engine's
//!   batch executor: heterogeneous mixes, hotspot-concentrated range
//!   batches for the fused sweeps, hot-key probe batches, and clustered
//!   kNN plans;
//! * [`poisson_arrivals`] / [`bursty_arrivals`] — deterministic open-loop
//!   arrival schedules ([`Arrival`]) turning any query batch into timed
//!   offered-load traffic for the `wazi-service` bench;
//! * [`mixed_read_write_schedule`] — alternating read-burst / write-burst
//!   schedules ([`RwStep`]) for the snapshot-versioned writer path: mixed
//!   query batches interleaved with insert/delete/maintain ops whose
//!   deletes only target points inserted earlier in the same schedule;
//! * [`reconnect_sessions`] — reconnect-heavy, hot-key-skewed per-client
//!   session schedules ([`ClientSchedule`] / [`SessionEpoch`]) for the
//!   `wazi-net` TCP transport bench.
//!
//! All generators are deterministic given their seeds, so every experiment
//! in `wazi-bench` is reproducible bit-for-bit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arrivals;
mod batch;
mod dataset;
mod queries;
mod region;
mod rw;
mod sessions;

pub use arrivals::{bursty_arrivals, poisson_arrivals, Arrival};
pub use batch::{
    generate_knn_batch, generate_mixed_batch, generate_mixed_batch_with_mix,
    generate_overlapping_batch, generate_point_batch, generate_scattered_batch, BatchMix,
};
pub use dataset::{
    generate_dataset, generate_dataset_with_seed, sample_point_queries, skew_summary,
    uniform_dataset, SkewSummary,
};
pub use queries::{
    drift_workload, generate_from_spec, generate_queries, generate_queries_with_seed,
    mean_center_distance_to, uniform_queries, WorkloadSpec, ABLATION_SELECTIVITIES, SELECTIVITIES,
    WORKLOAD_SIZE,
};
pub use region::{Cluster, Region};
pub use rw::{mixed_read_write_schedule, RwStep};
pub use sessions::{reconnect_sessions, ClientSchedule, SessionEpoch};
