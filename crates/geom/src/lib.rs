//! # wazi-geom
//!
//! Spatial primitives shared by every crate of the WaZI reproduction:
//!
//! * [`Point`] — two-dimensional points with the dominance relation used to
//!   state Z-order monotonicity;
//! * [`Rect`] — axis-aligned rectangles used as range queries, cell regions
//!   and page bounding boxes;
//! * [`Quadrant`], [`CellOrdering`], [`QueryCase`] — the split-point
//!   geometry behind Algorithm 1 and the cost formulas of the paper;
//! * [`zorder`] — classic rank-space Morton arithmetic (including BIGMIN,
//!   which the sorted-array scan uses to jump over irrelevant code runs)
//!   used by the rank-space baselines of Figure 4.
//!
//! The crate is dependency-free and contains no index logic of its own.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod point;
mod quadrant;
mod rect;
pub mod zorder;

pub use point::Point;
pub use quadrant::{CellOrdering, Quadrant, QueryCase};
pub use rect::Rect;
