//! The correctness gate: what every answer is compared against once the
//! clock has stopped.
//!
//! Two oracles back each other. Solo [`QueryEngine::execute`] gives the
//! expected answer of *every* distinct query (the repository's pinned
//! guarantee is that batching, the service and the wire never change it).
//! A linear scan over the point vector, which shares no code with any
//! index, checks a subsample of the range and kNN answers — and every point
//! probe, through a hash set of the points.

use std::collections::HashSet;

use wazi_core::{Query, QueryEngine, QueryOutput, SpatialIndex};
use wazi_geom::{Point, Rect};

/// Range queries checked by linear scan per run (≈1.5 ms each).
const RANGE_SAMPLE: usize = 256;
/// kNN queries checked by linear scan per run (≈3 ms each).
const KNN_SAMPLE: usize = 64;

/// Solo-execution answers of `queries` on `index`.
pub fn solo_answers(index: &dyn SpatialIndex, queries: &[Query]) -> Vec<QueryOutput> {
    let engine = QueryEngine::new(index);
    queries
        .iter()
        .map(|query| {
            engine
                .execute(query)
                .expect("generated queries are valid")
                .output
        })
        .collect()
}

/// `+0.0` and `-0.0` compare equal as coordinates, so they must hash alike.
fn key(p: &Point) -> (u64, u64) {
    ((p.x + 0.0).to_bits(), (p.y + 0.0).to_bits())
}

/// The linear-scan oracle over the generated dataset. Every method also
/// takes `extras`: the points a write schedule has added on top of it (its
/// deletes only ever remove points it inserted, so the dataset itself never
/// shrinks); read-only workloads pass none.
pub struct Scan<'a> {
    points: &'a [Point],
    set: HashSet<(u64, u64)>,
}

impl<'a> Scan<'a> {
    pub fn new(points: &'a [Point]) -> Self {
        Scan {
            points,
            set: points.iter().map(key).collect(),
        }
    }

    pub fn contains(&self, p: &Point, extras: &[Point]) -> bool {
        self.set.contains(&key(p)) || extras.contains(p)
    }

    fn count_in(&self, rect: &Rect, extras: &[Point]) -> u64 {
        let all = self.points.iter().chain(extras);
        all.filter(|p| rect.contains(p)).count() as u64
    }

    /// Squared distances of the `k` points nearest to `q`, ascending.
    fn nearest_distances(&self, q: &Point, k: usize, extras: &[Point]) -> Vec<f64> {
        let mut nearest: Vec<f64> = Vec::with_capacity(k + 1);
        for p in self.points.iter().chain(extras) {
            let d = p.distance_squared(q);
            if nearest.len() < k || nearest.last().is_some_and(|&worst| d < worst) {
                let at = nearest.partition_point(|&n| n <= d);
                nearest.insert(at, d);
                nearest.truncate(k);
            }
        }
        nearest
    }

    /// Whether `answer` is what a linear scan gives for `query`.
    pub fn agrees(&self, query: &Query, answer: &QueryOutput, extras: &[Point]) -> bool {
        match (query, answer) {
            (Query::Point(p), QueryOutput::Found(found)) => *found == self.contains(p, extras),
            (Query::Range { rect, .. }, QueryOutput::Points(points)) => {
                points.len() as u64 == self.count_in(rect, extras)
                    && points
                        .iter()
                        .all(|p| rect.contains(p) && self.contains(p, extras))
            }
            (
                Query::Range { rect, .. },
                QueryOutput::Count(count) | QueryOutput::Streamed(count),
            ) => *count == self.count_in(rect, extras),
            (Query::Knn { q, k }, QueryOutput::Neighbors(neighbors)) => {
                let got: Vec<f64> = neighbors.iter().map(|p| p.distance_squared(q)).collect();
                got == self.nearest_distances(q, *k, extras)
                    && neighbors.iter().all(|p| self.contains(p, extras))
            }
            _ => false,
        }
    }

    /// How many of the `(query, answer, extras)` checks disagree with the
    /// scan, dealt round-robin over `threads` threads.
    pub fn disagreements(&self, checks: &[Check<'_>], threads: usize) -> u64 {
        let threads = threads.max(1);
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|t| {
                    scope.spawn(move || {
                        let mine = checks.iter().skip(t).step_by(threads);
                        mine.filter(|(q, a, extras)| !self.agrees(q, a, extras))
                            .count() as u64
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("oracle thread panicked"))
                .sum()
        })
    }
}

/// One answer to check by scan: the query, the answer, and what the write
/// schedule had added when it was answered.
pub type Check<'c> = (&'c Query, &'c QueryOutput, &'c [Point]);

/// Which of `queries` the scan checks: every point probe (a hash lookup),
/// and an evenly strided sample of the range and of the kNN queries.
pub fn sample<'q>(queries: impl Iterator<Item = &'q Query> + Clone) -> Vec<usize> {
    let of_kind = |keep: fn(&Query) -> bool| {
        let kept = queries.clone().enumerate().filter(move |(_, q)| keep(q));
        kept.map(|(i, _)| i).collect::<Vec<usize>>()
    };
    let mut picked = of_kind(|q| matches!(q, Query::Point(_)));
    picked.extend(strided(of_kind(Query::is_range), RANGE_SAMPLE));
    picked.extend(strided(
        of_kind(|q| matches!(q, Query::Knn { .. })),
        KNN_SAMPLE,
    ));
    picked.sort_unstable();
    picked
}

/// How many of the sampled `answers` to `queries`, given over the dataset
/// alone, disagree with the scan.
pub fn sampled_disagreements(scan: &Scan, queries: &[Query], answers: &[QueryOutput]) -> u64 {
    let checks: Vec<Check> = sample(queries.iter())
        .into_iter()
        .map(|i| (&queries[i], &answers[i], &[][..]))
        .collect();
    scan.disagreements(&checks, crate::host::parallelism())
}

/// Up to `want` of `items`, evenly strided.
fn strided(items: Vec<usize>, want: usize) -> impl Iterator<Item = usize> {
    let stride = items.len().div_ceil(want).max(1);
    items.into_iter().step_by(stride)
}

/// A 64-bit fingerprint of an answer, for comparing answers too large to
/// keep. Word-wise multiply-xor: fast, and any changed bit changes it.
pub fn fingerprint(answer: &QueryOutput) -> u64 {
    let mix = |h: u64, word: u64| {
        (h ^ word)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(29)
    };
    let points = |tag: u64, points: &[Point]| {
        points.iter().fold(mix(tag, points.len() as u64), |h, p| {
            mix(mix(h, p.x.to_bits()), p.y.to_bits())
        })
    };
    match answer {
        QueryOutput::Points(found) => points(1, found),
        QueryOutput::Count(n) => mix(2, *n),
        QueryOutput::Streamed(n) => mix(3, *n),
        QueryOutput::Found(found) => mix(4, u64::from(*found)),
        QueryOutput::Neighbors(found) => points(5, found),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wazi_core::ZIndex;

    fn grid() -> Vec<Point> {
        (0..400)
            .map(|i| Point::new((i % 20) as f64 / 20.0, (i / 20) as f64 / 20.0))
            .collect()
    }

    #[test]
    fn scan_agrees_with_the_index_and_catches_a_flipped_answer() {
        let points = grid();
        let index = ZIndex::build_base(points.clone());
        let queries = [
            Query::range_count(Rect::from_coords(0.1, 0.1, 0.5, 0.4)),
            Query::range(Rect::from_coords(0.2, 0.0, 0.3, 0.9)),
            Query::point(Point::new(0.5, 0.5)),
            Query::point(Point::new(0.51, 0.5)),
            Query::knn(Point::new(0.33, 0.71), 8),
        ];
        let mut answers = solo_answers(&index, &queries);
        let scan = Scan::new(&points);
        let wrong = |answers: &[QueryOutput]| {
            let checks: Vec<Check> = queries
                .iter()
                .zip(answers)
                .map(|(q, a)| (q, a, &[][..]))
                .collect();
            scan.disagreements(&checks, 2)
        };
        assert_eq!(wrong(&answers), 0);
        let before = fingerprint(&answers[1]);
        answers[0] = QueryOutput::Count(1);
        answers[3] = QueryOutput::Found(true);
        if let QueryOutput::Points(found) = &mut answers[1] {
            found.swap(0, 1);
        }
        assert_eq!(
            wrong(&answers),
            2,
            "a reordered result set is still the right set"
        );
        assert_ne!(
            fingerprint(&answers[1]),
            before,
            "but it is not the same answer"
        );
    }

    #[test]
    fn extras_count_as_data() {
        let points = grid();
        let scan = Scan::new(&points);
        let extra = [Point::new(0.512, 0.512)];
        let probe = Query::point(extra[0]);
        assert!(scan.agrees(&probe, &QueryOutput::Found(false), &[]));
        assert!(scan.agrees(&probe, &QueryOutput::Found(true), &extra));
        let nearest = Query::knn(extra[0], 1);
        let answer = QueryOutput::Neighbors(vec![extra[0]]);
        assert!(scan.agrees(&nearest, &answer, &extra));
        assert!(!scan.agrees(&nearest, &answer, &[]));
    }

    #[test]
    fn the_sample_takes_every_probe_and_strides_the_rest() {
        let rect = Rect::from_coords(0.1, 0.1, 0.2, 0.2);
        let mut queries = vec![Query::point(Point::new(0.5, 0.5)); 3];
        queries.extend(vec![Query::range_count(rect); 2 * RANGE_SAMPLE]);
        queries.extend(vec![Query::knn(Point::new(0.5, 0.5), 2); KNN_SAMPLE - 1]);
        let picked = sample(queries.iter());
        assert_eq!(picked.len(), 3 + RANGE_SAMPLE + KNN_SAMPLE - 1);
        assert_eq!(picked[..5], [0, 1, 2, 3, 5]);
        assert_eq!(
            strided((0..10).collect(), 4).collect::<Vec<_>>(),
            vec![0, 3, 6, 9]
        );
    }
}
