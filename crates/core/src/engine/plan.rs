//! Typed query plans: the request and response vocabulary of the engine.
//!
//! A [`Query`] is a self-contained description of one operation against a
//! spatial index — there is no out-parameter threading and no per-operation
//! method to pick. The engine executes a plan and answers with the matching
//! [`QueryOutput`] variant, so workloads (mixes of range, point and kNN
//! queries, as in the paper's evaluation) are plain `Vec<Query>` values that
//! generators can produce and the batch executor can reorder internally.

use crate::engine::EngineError;
use wazi_geom::{Point, Rect};

/// Execution mode of a range query: what happens to the matching points.
///
/// All three modes share one scan kernel per index and charge identical work
/// counters (the paper's cost model charges bounding boxes checked and
/// points compared, not allocation); they differ only in the per-match work,
/// and `Stream` does exactly what `Count` does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RangeMode {
    /// Materialize the matching points ([`QueryOutput::Points`]).
    Collect,
    /// Return only the number of matches ([`QueryOutput::Count`]).
    Count,
    /// Count the matches, answered as [`QueryOutput::Streamed`]: `Count`
    /// under another name, kept for the wire protocol's tags and the
    /// benchmark's traffic, which still send it.
    Stream,
}

/// A typed query plan executed by [`crate::engine::QueryEngine`].
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// Range query over `rect`, executed in the given [`RangeMode`].
    Range {
        /// The query rectangle (inclusive on all edges).
        rect: Rect,
        /// What to do with the matching points.
        mode: RangeMode,
    },
    /// Exact-match point query.
    Point(Point),
    /// The `k` nearest neighbours of `q`, ordered by increasing distance.
    Knn {
        /// Query point.
        q: Point,
        /// Number of neighbours requested (clamped to the index size).
        k: usize,
    },
}

impl Query {
    /// Materializing range query plan.
    pub fn range(rect: Rect) -> Self {
        Query::Range {
            rect,
            mode: RangeMode::Collect,
        }
    }

    /// Counting range query plan (the non-materializing measurement path).
    pub fn range_count(rect: Rect) -> Self {
        Query::Range {
            rect,
            mode: RangeMode::Count,
        }
    }

    /// [`RangeMode::Stream`] range query plan: a count.
    pub fn range_stream(rect: Rect) -> Self {
        Query::Range {
            rect,
            mode: RangeMode::Stream,
        }
    }

    /// Point query plan.
    pub fn point(p: Point) -> Self {
        Query::Point(p)
    }

    /// kNN query plan.
    pub fn knn(q: Point, k: usize) -> Self {
        Query::Knn { q, k }
    }

    /// Returns `true` for range plans (the ones the fused batch kernel can
    /// execute together).
    pub fn is_range(&self) -> bool {
        matches!(self, Query::Range { .. })
    }

    /// Validates the plan's geometry: every coordinate must be finite.
    /// Rejecting non-finite inputs up front keeps them out of the indexes'
    /// coordinate mappings, which are only defined over finite space.
    pub fn validate(&self) -> Result<(), EngineError> {
        match self {
            Query::Range { rect, .. } => {
                if !rect.lo.is_finite() || !rect.hi.is_finite() {
                    return Err(EngineError::InvalidQuery(format!(
                        "range rectangle has non-finite corners: {rect}"
                    )));
                }
            }
            Query::Point(p) => {
                if !p.is_finite() {
                    return Err(EngineError::InvalidQuery(format!("non-finite point {p}")));
                }
            }
            Query::Knn { q, .. } => {
                if !q.is_finite() {
                    return Err(EngineError::InvalidQuery(format!(
                        "non-finite kNN centre {q}"
                    )));
                }
            }
        }
        Ok(())
    }
}

/// The answer to a [`Query`], variant-matched to the plan that produced it.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutput {
    /// Materialized result of a [`RangeMode::Collect`] range query.
    Points(Vec<Point>),
    /// Result-set size of a [`RangeMode::Count`] range query.
    Count(u64),
    /// Result-set size of a [`RangeMode::Stream`] range query, counted as
    /// a [`RangeMode::Count`] one is; kept for the wire protocol and the
    /// benchmark.
    Streamed(u64),
    /// Whether a [`Query::Point`] probe found its point.
    Found(bool),
    /// Neighbours of a [`Query::Knn`] query, ordered by increasing distance.
    Neighbors(Vec<Point>),
}

impl QueryOutput {
    /// Number of result points the operation produced, uniformly across
    /// variants (a found point probe counts as one result).
    pub fn result_count(&self) -> u64 {
        match self {
            QueryOutput::Points(points) => points.len() as u64,
            QueryOutput::Count(n) | QueryOutput::Streamed(n) => *n,
            QueryOutput::Found(found) => u64::from(*found),
            QueryOutput::Neighbors(points) => points.len() as u64,
        }
    }

    /// The materialized points, when the plan materialized any
    /// ([`QueryOutput::Points`] or [`QueryOutput::Neighbors`]).
    pub fn points(&self) -> Option<&[Point]> {
        match self {
            QueryOutput::Points(points) | QueryOutput::Neighbors(points) => Some(points),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_build_the_expected_plans() {
        let rect = Rect::from_coords(0.1, 0.1, 0.4, 0.3);
        assert_eq!(
            Query::range(rect),
            Query::Range {
                rect,
                mode: RangeMode::Collect
            }
        );
        assert_eq!(
            Query::range_count(rect),
            Query::Range {
                rect,
                mode: RangeMode::Count
            }
        );
        assert!(Query::range_stream(rect).is_range());
        assert!(!Query::point(Point::new(0.5, 0.5)).is_range());
        assert!(!Query::knn(Point::new(0.5, 0.5), 3).is_range());
    }

    #[test]
    fn validation_rejects_non_finite_geometry() {
        assert!(Query::range(Rect::UNIT).validate().is_ok());
        assert!(Query::point(Point::new(0.1, 0.2)).validate().is_ok());
        assert!(Query::knn(Point::new(0.1, 0.2), 0).validate().is_ok());

        assert!(Query::range(Rect::EMPTY).validate().is_err());
        assert!(Query::point(Point::new(f64::NAN, 0.0)).validate().is_err());
        assert!(Query::knn(Point::new(0.0, f64::INFINITY), 1)
            .validate()
            .is_err());
    }

    #[test]
    fn result_count_is_uniform_across_variants() {
        let two = vec![Point::new(0.1, 0.1), Point::new(0.2, 0.2)];
        assert_eq!(QueryOutput::Points(two.clone()).result_count(), 2);
        assert_eq!(QueryOutput::Count(7).result_count(), 7);
        assert_eq!(QueryOutput::Streamed(3).result_count(), 3);
        assert_eq!(QueryOutput::Found(true).result_count(), 1);
        assert_eq!(QueryOutput::Found(false).result_count(), 0);
        assert_eq!(QueryOutput::Neighbors(two.clone()).result_count(), 2);
        assert_eq!(
            QueryOutput::Points(two).points().map(<[Point]>::len),
            Some(2)
        );
        assert_eq!(QueryOutput::Count(7).points(), None);
    }
}
