//! # wazi-storage
//!
//! The storage substrate shared by every spatial index in the WaZI
//! reproduction:
//!
//! * [`Page`] / [`PageStore`] — clustered data pages of capacity `L`
//!   (the leaf pages the Z-index scanning phase iterates over), with
//!   visitor-based scan primitives (`for_each_in`, `count_in`) so query
//!   execution can filter, count or stream in place without materializing
//!   intermediate vectors;
//! * [`ExecStats`], [`StatsSummary`] — the execution counters (bounding
//!   boxes checked, pages scanned, excess points, projection vs scan time)
//!   reported throughout the paper's evaluation.
//!
//! The counters double as the query engine's *fusion ledger*: fused batch
//! kernels charge per-query work to per-query [`ExecStats`] and shared
//! page visits to a batch-level record.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod page;
mod stats;
mod store;

pub use page::{Page, PageId};
pub use stats::{ExecStats, StatsSummary};
pub use store::PageStore;
