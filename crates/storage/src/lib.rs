//! # wazi-storage
//!
//! The storage substrate shared by every spatial index in the WaZI
//! reproduction:
//!
//! * [`Page`] / [`PageStore`] — clustered data pages of capacity `L`
//!   (the leaf pages the Z-index scanning phase iterates over), with two
//!   scan primitives — `count_in_shared` counts, `filter_into_shared`
//!   appends the matches — that charge a request its points but leave the
//!   page visit to the caller, plus the point probe;
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
