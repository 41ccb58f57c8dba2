//! Execution statistics used throughout the evaluation.
//!
//! The paper reports several counters besides wall-clock latency: the number
//! of bounding boxes checked, pages scanned and excess points compared
//! (Figure 13), and a split of the query time into a *projection* phase
//! (search-structure traversal identifying candidate pages) and a *scan*
//! phase (filtering points from those pages) (Figure 9). Every index in this
//! workspace reports its work through [`ExecStats`] so the benchmark harness
//! can compare them uniformly.

use std::time::Duration;

/// Per-query (or per-operation) execution counters.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct ExecStats {
    /// Internal search-structure nodes visited during traversal.
    pub nodes_visited: u64,
    /// Leaf/page bounding boxes compared against the query rectangle.
    pub bbs_checked: u64,
    /// Pages whose points were scanned.
    pub pages_scanned: u64,
    /// Points charged to the query: the paper's Eq. 5 cost. A range scan
    /// charges every point of every page it visits, compared or not (a
    /// page lying wholly inside the query is accepted without comparing
    /// one); a point probe charges the comparisons up to its hit.
    pub points_scanned: u64,
    /// Points returned in the result set.
    pub results: u64,
    /// Leaf-list hops skipped thanks to look-ahead pointers.
    pub leaves_skipped: u64,
    /// Time spent in the projection phase (identifying relevant pages).
    pub projection_ns: u64,
    /// Time spent in the scan phase (filtering points from pages).
    pub scan_ns: u64,
}

impl ExecStats {
    /// Resets every counter to zero.
    pub fn reset(&mut self) {
        *self = ExecStats::default();
    }

    /// Number of points compared that did not belong to the result set
    /// ("excess points" in Figure 13).
    pub fn excess_points(&self) -> u64 {
        self.points_scanned.saturating_sub(self.results)
    }

    /// Total recorded time across phases.
    pub fn total_ns(&self) -> u64 {
        self.projection_ns + self.scan_ns
    }

    /// Adds another stats record into this one (component-wise sum).
    pub fn merge(&mut self, other: &ExecStats) {
        self.nodes_visited += other.nodes_visited;
        self.bbs_checked += other.bbs_checked;
        self.pages_scanned += other.pages_scanned;
        self.points_scanned += other.points_scanned;
        self.results += other.results;
        self.leaves_skipped += other.leaves_skipped;
        self.projection_ns += other.projection_ns;
        self.scan_ns += other.scan_ns;
    }

    /// Records a projection-phase duration.
    pub fn add_projection(&mut self, d: Duration) {
        self.projection_ns += d.as_nanos() as u64;
    }

    /// Records a scan-phase duration.
    pub fn add_scan(&mut self, d: Duration) {
        self.scan_ns += d.as_nanos() as u64;
    }
}

/// Aggregated statistics over many operations, with per-counter means.
#[derive(Debug, Default, Clone, Copy)]
pub struct StatsSummary {
    /// Number of operations aggregated.
    pub operations: u64,
    /// Component-wise totals.
    pub totals: ExecStats,
}

impl StatsSummary {
    /// Adds one operation's stats.
    pub fn record(&mut self, stats: &ExecStats) {
        self.operations += 1;
        self.totals.merge(stats);
    }

    /// Mean of a counter extracted by `f` over the recorded operations.
    pub fn mean_of(&self, f: impl Fn(&ExecStats) -> u64) -> f64 {
        if self.operations == 0 {
            return 0.0;
        }
        f(&self.totals) as f64 / self.operations as f64
    }

    /// Mean total latency (projection + scan) in nanoseconds.
    pub fn mean_latency_ns(&self) -> f64 {
        self.mean_of(|s| s.total_ns())
    }

    /// Mean projection-phase latency in nanoseconds.
    pub fn mean_projection_ns(&self) -> f64 {
        self.mean_of(|s| s.projection_ns)
    }

    /// Mean scan-phase latency in nanoseconds.
    pub fn mean_scan_ns(&self) -> f64 {
        self.mean_of(|s| s.scan_ns)
    }

    /// Mean number of result points per operation.
    pub fn mean_results(&self) -> f64 {
        self.mean_of(|s| s.results)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_and_excess() {
        let mut a = ExecStats {
            points_scanned: 100,
            results: 30,
            bbs_checked: 5,
            ..Default::default()
        };
        let b = ExecStats {
            points_scanned: 50,
            results: 20,
            pages_scanned: 2,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.points_scanned, 150);
        assert_eq!(a.results, 50);
        assert_eq!(a.excess_points(), 100);
        assert_eq!(a.bbs_checked, 5);
        assert_eq!(a.pages_scanned, 2);
    }

    #[test]
    fn excess_never_underflows() {
        let s = ExecStats {
            points_scanned: 5,
            results: 10,
            ..Default::default()
        };
        assert_eq!(s.excess_points(), 0);
    }

    #[test]
    fn timing_phases_accumulate() {
        let mut s = ExecStats::default();
        s.add_projection(Duration::from_nanos(500));
        s.add_scan(Duration::from_nanos(1_500));
        s.add_scan(Duration::from_nanos(100));
        assert_eq!(s.projection_ns, 500);
        assert_eq!(s.scan_ns, 1_600);
        assert_eq!(s.total_ns(), 2_100);
        s.reset();
        assert_eq!(s.total_ns(), 0);
    }

    #[test]
    fn summary_means() {
        let mut summary = StatsSummary::default();
        assert_eq!(summary.mean_latency_ns(), 0.0);
        for i in 1..=4u64 {
            let s = ExecStats {
                projection_ns: 100 * i,
                scan_ns: 900 * i,
                results: i,
                ..Default::default()
            };
            summary.record(&s);
        }
        assert_eq!(summary.operations, 4);
        assert_eq!(summary.mean_latency_ns(), 2_500.0);
        assert_eq!(summary.mean_projection_ns(), 250.0);
        assert_eq!(summary.mean_scan_ns(), 2_250.0);
        assert_eq!(summary.mean_results(), 2.5);
    }
}
