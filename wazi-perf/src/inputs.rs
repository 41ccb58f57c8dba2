//! Every input the benchmark feeds the program, made from `--seed` alone,
//! and the FNV-1a digest that pins them.

use std::time::Instant;

use wazi_core::{Query, WriteOp};
use wazi_geom::{Point, Rect};
use wazi_workload::{
    generate_dataset_with_seed, generate_knn_batch, generate_mixed_batch,
    generate_queries_with_seed, generate_scattered_batch, mixed_read_write_schedule,
    sample_point_queries, uniform_dataset, Region, RwStep, SELECTIVITIES,
};

pub const REGION: Region = Region::NewYork;
/// 16 MiB of points: four times this host's L2, so scans are memory-bound.
pub const DATASET_POINTS: usize = 1_000_000;
/// Training rectangles per selectivity (2 000 in all).
const TRAIN_PER_SELECTIVITY: usize = 500;
/// Selectivity of the hot-spot batches of `batch_fused` and `serve_rw`.
pub const HOT_SELECTIVITY: f64 = 0.000_256;
/// Selectivity of `batch_scattered`.
const SCATTERED_SELECTIVITY: f64 = 0.000_016;
pub const KNN_K: usize = 8;

/// The dataset and the training workload every workload's index is built
/// from, with how long the generators took.
pub struct Common {
    pub seed: u64,
    pub points: Vec<Point>,
    pub train: Vec<Rect>,
    pub dataset_gen_s: f64,
    pub query_gen_s: f64,
}

impl Common {
    pub fn generate(seed: u64) -> Self {
        let start = Instant::now();
        let points = generate_dataset_with_seed(REGION, DATASET_POINTS, seed);
        let dataset_gen_s = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let train = four_selectivities(TRAIN_PER_SELECTIVITY, seed.wrapping_add(1));
        let query_gen_s = start.elapsed().as_secs_f64();
        Common {
            seed,
            points,
            train,
            dataset_gen_s,
            query_gen_s,
        }
    }
}

/// `per_selectivity` rectangles of each of the paper's four selectivities,
/// interleaved so every stretch of the list holds the same mix.
pub fn four_selectivities(per_selectivity: usize, seed: u64) -> Vec<Rect> {
    let lists: Vec<Vec<Rect>> = SELECTIVITIES
        .iter()
        .enumerate()
        .map(|(i, &selectivity)| {
            let seed = seed.wrapping_mul(0x9E37_79B9).wrapping_add(i as u64);
            generate_queries_with_seed(REGION, per_selectivity, selectivity, seed)
        })
        .collect();
    (0..per_selectivity)
        .flat_map(|i| lists.iter().map(move |list| list[i]))
        .collect()
}

/// Half hits sampled from the data, half uniform misses, alternating.
pub fn point_probes(points: &[Point], count: usize, seed: u64) -> Vec<Point> {
    let hits = sample_point_queries(points, count / 2, seed.wrapping_add(5));
    let misses = uniform_dataset(count - count / 2, seed.wrapping_add(6));
    let mut probes = Vec::with_capacity(count);
    let (mut hits, mut misses) = (hits.into_iter(), misses.into_iter());
    while probes.len() < count {
        probes.extend(misses.next());
        probes.extend(hits.next());
    }
    probes
}

/// `count` hot-spot batches of 128 mixed plans (70/20/10 range/point/kNN).
pub fn fused_batches(count: usize, seed: u64) -> Vec<Vec<Query>> {
    (0..count as u64)
        .map(|i| generate_mixed_batch(REGION, 128, HOT_SELECTIVITY, seed.wrapping_add(i)))
        .collect()
}

/// `count` batches of 64 barely-overlapping range counts.
pub fn scattered_batches(count: usize, seed: u64) -> Vec<Vec<Query>> {
    (0..count as u64)
        .map(|i| generate_scattered_batch(REGION, 64, SCATTERED_SELECTIVITY, seed.wrapping_add(i)))
        .collect()
}

/// Traffic **T_cheap**: 50 % point probes (half hit, half miss), 40 % range
/// counts at the smallest selectivity, 10 % kNN (k = 8), in exactly those
/// shares and shuffled by the seed.
pub fn t_cheap(points: &[Point], count: usize, seed: u64) -> Vec<Query> {
    let knns = count / 10;
    let ranges = count * 4 / 10;
    let probes = count - knns - ranges;
    let mut traffic: Vec<Query> = point_probes(points, probes, seed)
        .into_iter()
        .map(Query::point)
        .collect();
    traffic.extend(
        generate_queries_with_seed(REGION, ranges, SELECTIVITIES[0], seed.wrapping_add(4))
            .into_iter()
            .map(Query::range_count),
    );
    traffic.extend(generate_knn_batch(
        REGION,
        knns,
        KNN_K,
        seed.wrapping_add(3),
    ));
    shuffle(&mut traffic, seed);
    traffic
}

/// Traffic **T_mixed**: `rounds` read bursts of mixed plans, each followed
/// by a write burst (≈¾ inserts, ¼ deletes, a closing `Maintain`), and a
/// closing read burst.
pub fn t_mixed(rounds: usize, reads: usize, writes: usize, seed: u64) -> Vec<RwStep> {
    mixed_read_write_schedule(REGION, rounds, reads, writes, HOT_SELECTIVITY, seed)
}

/// Fisher–Yates with a SplitMix64 stream, so the order depends on the seed
/// and on nothing else.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed ^ 0x5EED_5EED_5EED_5EED;
    for i in (1..items.len()).rev() {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        items.swap(i, (z % (i as u64 + 1)) as usize);
    }
}

/// FNV-1a over the bit patterns of a workload's inputs.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn value(&self) -> u64 {
        self.0
    }

    pub fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn point(&mut self, p: &Point) {
        self.word(p.x.to_bits());
        self.word(p.y.to_bits());
    }

    pub fn points(&mut self, points: &[Point]) {
        points.iter().for_each(|p| self.point(p));
    }

    pub fn rect(&mut self, rect: &Rect) {
        self.point(&rect.lo);
        self.point(&rect.hi);
    }

    pub fn query(&mut self, query: &Query) {
        match query {
            Query::Range { rect, mode } => {
                self.word(1 + *mode as u64);
                self.rect(rect);
            }
            Query::Point(p) => {
                self.word(4);
                self.point(p);
            }
            Query::Knn { q, k } => {
                self.word(5);
                self.point(q);
                self.word(*k as u64);
            }
        }
    }

    pub fn queries(&mut self, queries: &[Query]) {
        queries.iter().for_each(|q| self.query(q));
    }

    pub fn write_ops(&mut self, ops: &[WriteOp]) {
        for op in ops {
            match op {
                WriteOp::Insert(p) => {
                    self.word(6);
                    self.point(p);
                }
                WriteOp::Delete(p) => {
                    self.word(7);
                    self.point(p);
                }
                WriteOp::Maintain => self.word(8),
            }
        }
    }

    /// The digest of the common inputs, which every workload's digest
    /// starts from.
    pub fn of_common(common: &Common) -> Self {
        let mut digest = Digest::new();
        digest.points(&common.points);
        common.train.iter().for_each(|r| digest.rect(r));
        digest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_has_exact_shares_and_depends_only_on_the_seed() {
        let points = generate_dataset_with_seed(REGION, 5_000, 7);
        let a = t_cheap(&points, 1_000, 7);
        assert_eq!(a, t_cheap(&points, 1_000, 7));
        assert_ne!(a, t_cheap(&points, 1_000, 8));
        let count = |f: fn(&Query) -> bool| a.iter().filter(|q| f(q)).count();
        assert_eq!(count(|q| matches!(q, Query::Point(_))), 500);
        assert_eq!(count(Query::is_range), 400);
        assert_eq!(count(|q| matches!(q, Query::Knn { .. })), 100);
    }

    #[test]
    fn probes_alternate_misses_and_hits() {
        let points = generate_dataset_with_seed(REGION, 5_000, 7);
        let probes = point_probes(&points, 100, 7);
        assert_eq!(probes.len(), 100);
        let hits = probes.iter().filter(|p| points.contains(p)).count();
        assert_eq!(hits, 50);
    }

    #[test]
    fn selectivities_interleave() {
        let rects = four_selectivities(3, 9);
        assert_eq!(rects.len(), 12);
        for group in rects.chunks(4) {
            let areas: Vec<f64> = group.iter().map(Rect::area).collect();
            assert!(areas.windows(2).all(|w| w[0] < w[1]), "{areas:?}");
        }
    }

    #[test]
    fn digest_tells_inputs_apart() {
        let mut a = Digest::new();
        a.point(&Point::new(0.25, 0.5));
        let mut b = Digest::new();
        b.point(&Point::new(0.5, 0.25));
        assert_ne!(a.value(), b.value());
        assert_eq!(Digest::new().value(), 0xcbf2_9ce4_8422_2325);
    }
}
