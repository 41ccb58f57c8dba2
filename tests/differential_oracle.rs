//! Cross-crate integration test: the differential oracle.
//!
//! Every index kind, under every batch strategy, after every burst of a
//! seeded update history, must answer a mixed batch exactly like a linear
//! scan over a plain point vector. The scan shares no code with any index:
//! it is a `SpatialIndex` with native insert and delete, no kernels and its
//! own kNN, and it rides the same `VersionedIndex` write path, so both sides
//! see the same history op for op. Its answers follow the benchmark's
//! linear-scan oracle (`wazi-perf/src/oracle.rs`):
//!
//! * range `Collect` answers as sorted multisets, `Count` and `Stream`
//!   answers by exact count;
//! * point probes exactly;
//! * kNN answers by their exact distance lists (ties at the k-th distance
//!   may legitimately pick different points).
//!
//! The indexes apply the history through their native update paths where
//! they have one and through the rebuild fallback where they do not
//! (`wazi_bench::build_versioned_index`). On a divergence the test shrinks
//! the history — the shortest failing prefix, then every earlier burst it
//! can drop — and reports the seed, kind, bursts and first diverging query.

use wazi_bench::{build_versioned_index, IndexKind};
use wazi_core::faults::splitmix64;
use wazi_core::{
    BatchStrategy, ExecStats, IndexError, Query, QueryEngine, QueryOutput, SpatialIndex,
    VersionedIndex, WriteOp,
};
use wazi_geom::{Point, Rect};
use wazi_workload::{generate_dataset_with_seed, generate_queries, Region, SELECTIVITIES};

const REGION: Region = Region::NewYork;
const BASE_POINTS: usize = 2_000;
const BURSTS: usize = 5;
const LEAF_CAPACITY: usize = 32;
const SEEDS: [u64; 3] = [1, 7, 42];

const KINDS: [IndexKind; 9] = [
    IndexKind::Wazi,
    IndexKind::WaziNoSkip,
    IndexKind::BaseSkip,
    IndexKind::Base,
    IndexKind::Str,
    IndexKind::Cur,
    IndexKind::Flood,
    IndexKind::Quasii,
    IndexKind::Zpgm,
];

const STRATEGIES: [(&str, BatchStrategy); 4] = [
    ("sequential", BatchStrategy::Sequential),
    ("fused", BatchStrategy::Fused),
    (
        "fused-parallel/3",
        BatchStrategy::FusedParallel { shards: 3 },
    ),
    ("auto", BatchStrategy::Auto),
];

/// The oracle: a linear scan over the points, in insertion order.
#[derive(Clone)]
struct LinearScan {
    points: Vec<Point>,
}

impl SpatialIndex for LinearScan {
    fn name(&self) -> &'static str {
        "LinearScan"
    }

    fn len(&self) -> usize {
        self.points.len()
    }

    fn data_bounds(&self) -> Rect {
        Rect::bounding(&self.points)
    }

    fn range_query(&self, query: &Rect, _stats: &mut ExecStats) -> Vec<Point> {
        let inside = self.points.iter().filter(|p| query.contains(p));
        inside.copied().collect()
    }

    fn point_query(&self, p: &Point, _stats: &mut ExecStats) -> bool {
        self.points.contains(p)
    }

    fn insert(&mut self, p: Point) -> Result<(), IndexError> {
        self.points.push(p);
        Ok(())
    }

    fn delete(&mut self, p: &Point) -> Result<bool, IndexError> {
        let at = self.points.iter().position(|q| q == p);
        Ok(at.map(|at| self.points.swap_remove(at)).is_some())
    }

    fn size_bytes(&self) -> usize {
        self.points.len() * std::mem::size_of::<Point>()
    }

    /// Every point sorted by distance, not the doubling-radius fallback the
    /// indexes share.
    fn knn(&self, q: &Point, k: usize, _stats: &mut ExecStats) -> Vec<Point> {
        let mut all = self.points.clone();
        all.sort_by(|a, b| a.distance_squared(q).total_cmp(&b.distance_squared(q)));
        all.truncate(k);
        all
    }
}

/// An answer in the form two correct indexes must agree on.
#[derive(Debug, Clone, PartialEq)]
enum Answer {
    Points(Vec<Point>),
    Count(u64),
    Streamed(u64),
    Found(bool),
    Distances(Vec<f64>),
}

fn normalize(query: &Query, output: QueryOutput) -> Answer {
    match (query, output) {
        (_, QueryOutput::Points(mut points)) => {
            points.sort_by(|a, b| a.lex_cmp(b));
            Answer::Points(points)
        }
        (_, QueryOutput::Count(n)) => Answer::Count(n),
        (_, QueryOutput::Streamed(n)) => Answer::Streamed(n),
        (_, QueryOutput::Found(found)) => Answer::Found(found),
        (Query::Knn { q, .. }, QueryOutput::Neighbors(neighbors)) => {
            Answer::Distances(neighbors.iter().map(|p| p.distance_squared(q)).collect())
        }
        (other, output) => panic!("{output:?} does not answer {other:?}"),
    }
}

/// A uniform point of the unit square.
fn random_point(rng: &mut u64) -> Point {
    let mut unit = || (splitmix64(rng) >> 11) as f64 / (1u64 << 53) as f64;
    Point::new(unit(), unit())
}

/// A seeded history of write bursts over `base`: inserts of fresh points,
/// deletes of present points (base or inserted) and of absent ones, and
/// `Maintain` closing every other burst.
fn history(seed: u64, base: &[Point]) -> Vec<Vec<WriteOp>> {
    let mut rng = seed ^ 0x9E37_79B9_7F4A_7C15;
    let mut present = base.to_vec();
    (0..BURSTS)
        .map(|burst| {
            let mut ops = Vec::new();
            for _ in 0..8 {
                let p = random_point(&mut rng);
                present.push(p);
                ops.push(WriteOp::Insert(p));
            }
            for _ in 0..3 {
                let at = splitmix64(&mut rng) as usize % present.len();
                ops.push(WriteOp::Delete(present.swap_remove(at)));
            }
            for _ in 0..2 {
                ops.push(WriteOp::Delete(random_point(&mut rng)));
            }
            if burst % 2 == 1 {
                ops.push(WriteOp::Maintain);
            }
            ops
        })
        .collect()
}

/// The mixed batch checked after burst `burst`: every range mode over
/// random boxes, an empty box and the whole space; point hits, misses and
/// duplicates; kNN with k in {0, 1, 8, len + 1}, co-located so that rings
/// fuse.
fn mixed_batch(seed: u64, burst: usize, present: &[Point]) -> Vec<Query> {
    let mut rng = seed.wrapping_mul(31).wrapping_add(burst as u64);
    let mut batch = Vec::new();
    for i in 0..6 {
        let c = random_point(&mut rng);
        let half = 0.01 + 0.03 * i as f64;
        let rect = Rect::from_coords(c.x - half, c.y - half, c.x + half, c.y + half);
        batch.push(Query::range(rect));
        batch.push(Query::range_count(rect));
        batch.push(Query::range_stream(rect));
    }
    let duplicate = batch[3].clone();
    batch.push(duplicate);
    let empty = Rect::from_coords(1.25, 1.25, 1.5, 1.5);
    let whole = Rect::from_coords(-0.5, -0.5, 1.5, 1.5);
    batch.extend([
        Query::range(empty),
        Query::range_count(empty),
        Query::range_stream(empty),
        Query::range(whole),
        Query::range_count(whole),
    ]);
    for _ in 0..4 {
        let hit = present[splitmix64(&mut rng) as usize % present.len()];
        batch.push(Query::point(hit));
        batch.push(Query::point(random_point(&mut rng)));
    }
    let repeated = present[splitmix64(&mut rng) as usize % present.len()];
    batch.extend([Query::point(repeated), Query::point(repeated)]);
    let centre = random_point(&mut rng);
    for (j, k) in [0, 1, 8, present.len() + 1].into_iter().enumerate() {
        let q = Point::new(centre.x + 0.001 * j as f64, centre.y);
        batch.push(Query::knn(q, k));
        batch.push(Query::knn(Point::new(q.x, q.y + 0.002), k));
    }
    batch
}

/// Where a run first disagreed with the oracle.
#[derive(Debug)]
struct Divergence {
    /// Bursts applied, as indexes into the full history.
    bursts: Vec<usize>,
    strategy: &'static str,
    position: usize,
    query: Query,
    got: Answer,
    want: Answer,
}

/// Replays the bursts `kept` of `history` on a fresh `kind` index and a
/// fresh oracle, checking the mixed batch after every burst.
fn replay(
    kind: IndexKind,
    seed: u64,
    base: &[Point],
    train: &[Rect],
    history: &[Vec<WriteOp>],
    kept: &[usize],
) -> Result<(), Box<Divergence>> {
    let index = build_versioned_index(kind, base, train, LEAF_CAPACITY);
    let oracle = VersionedIndex::new(LinearScan {
        points: base.to_vec(),
    });
    for (applied, &burst) in kept.iter().enumerate() {
        index.apply(&history[burst]).expect("every kind applies");
        oracle.apply(&history[burst]).expect("the scan applies");
        let snapshot = index.snapshot();
        let truth = oracle.snapshot();
        let present = oracle_points(&truth);
        assert_eq!(snapshot.len(), present.len(), "{kind}/{seed}: length");
        let batch = mixed_batch(seed, burst, &present);
        let oracle_engine = QueryEngine::new(&truth).with_strategy(BatchStrategy::Sequential);
        let want: Vec<Answer> = batch
            .iter()
            .map(|query| normalize(query, oracle_engine.execute(query).unwrap().output))
            .collect();
        for (strategy, schedule) in STRATEGIES {
            let report = QueryEngine::new(&snapshot)
                .with_strategy(schedule)
                .execute_batch(&batch)
                .expect("the batch is valid");
            assert_eq!(report.len(), batch.len());
            let answers = report.reports.into_iter().map(|r| r.output);
            for (position, ((query, got), want)) in batch.iter().zip(answers).zip(&want).enumerate()
            {
                let got = normalize(query, got);
                if got != *want {
                    return Err(Box::new(Divergence {
                        bursts: kept[..=applied].to_vec(),
                        strategy,
                        position,
                        query: query.clone(),
                        got,
                        want: want.clone(),
                    }));
                }
            }
        }
    }
    Ok(())
}

/// The oracle snapshot's points, read back through its own whole-space
/// range query.
fn oracle_points(truth: &dyn SpatialIndex) -> Vec<Point> {
    let whole = Rect::from_coords(f64::MIN, f64::MIN, f64::MAX, f64::MAX);
    truth.range_query(&whole, &mut ExecStats::default())
}

/// Shrinks a failing history: the failure's prefix first, then every
/// earlier burst whose removal keeps the run failing.
fn shrink(
    kind: IndexKind,
    seed: u64,
    base: &[Point],
    train: &[Rect],
    history: &[Vec<WriteOp>],
    failure: Divergence,
) -> Divergence {
    let mut smallest = failure;
    let mut kept = smallest.bursts.clone();
    let mut at = 0;
    while at + 1 < kept.len() {
        let mut fewer = kept.clone();
        fewer.remove(at);
        match replay(kind, seed, base, train, history, &fewer) {
            Err(failure) => {
                kept = failure.bursts.clone();
                smallest = *failure;
            }
            Ok(()) => at += 1,
        }
    }
    smallest
}

#[test]
fn every_kind_and_strategy_answers_like_a_linear_scan_through_an_update_history() {
    let train = generate_queries(REGION, 100, SELECTIVITIES[2]);
    for seed in SEEDS {
        let base = generate_dataset_with_seed(REGION, BASE_POINTS, seed);
        let history = history(seed, &base);
        let all: Vec<usize> = (0..history.len()).collect();
        for kind in KINDS {
            if let Err(failure) = replay(kind, seed, &base, &train, &history, &all) {
                let shrunk = shrink(kind, seed, &base, &train, &history, *failure);
                panic!(
                    "seed {seed}, kind {kind}: diverged after bursts {:?} under {} at query {} \
                     ({:?})\n got: {:?}\nwant: {:?}\nbursts: {:#?}",
                    shrunk.bursts,
                    shrunk.strategy,
                    shrunk.position,
                    shrunk.query,
                    shrunk.got,
                    shrunk.want,
                    shrunk
                        .bursts
                        .iter()
                        .map(|&b| &history[b])
                        .collect::<Vec<_>>()
                );
            }
        }
    }
}

/// The oracle itself is right: a hand-checked history on a tiny grid.
#[test]
fn the_linear_scan_applies_the_history_it_is_given() {
    let grid: Vec<Point> = (0..16)
        .map(|i| Point::new((i % 4) as f64 / 4.0, (i / 4) as f64 / 4.0))
        .collect();
    let oracle = VersionedIndex::new(LinearScan {
        points: grid.clone(),
    });
    let fresh = Point::new(0.1, 0.1);
    oracle
        .apply(&[
            WriteOp::Insert(fresh),
            WriteOp::Delete(grid[5]),
            WriteOp::Delete(Point::new(0.9, 0.9)),
            WriteOp::Maintain,
        ])
        .unwrap();
    let truth = oracle.snapshot();
    let engine = QueryEngine::new(&truth);
    let answer = |query: Query| normalize(&query, engine.execute(&query).unwrap().output);
    assert_eq!(truth.len(), 16);
    assert_eq!(answer(Query::point(fresh)), Answer::Found(true));
    assert_eq!(answer(Query::point(grid[5])), Answer::Found(false));
    assert_eq!(
        answer(Query::range_count(Rect::from_coords(0.0, 0.0, 0.3, 0.3))),
        Answer::Count(4)
    );
    assert_eq!(
        answer(Query::knn(Point::new(0.0, 0.0), 2)),
        Answer::Distances(vec![0.0, fresh.distance_squared(&Point::new(0.0, 0.0))])
    );
}
