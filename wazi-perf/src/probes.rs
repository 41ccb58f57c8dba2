//! The layer probes of the traced run: each public layer timed on its own,
//! from outside, on the run's dataset and index. They are the same in every
//! workload's traced run; what differs per workload is the span and counter
//! metrics of `layers.rs`.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use wazi_baselines::{CurTree, FloodIndex, Quasii, StrRTree, ZOrderSorted};
use wazi_core::{BatchStrategy, Query, QueryEngine, SpatialIndex, VersionedIndex, WriteOp, ZIndex};
use wazi_density::{Rfde, RfdeConfig};
use wazi_geom::{Point, Rect};
use wazi_net::wire::{self, Frame, FrameBody};
use wazi_net::{Client, ClientConfig, Server, DEFAULT_MAX_FRAME_LEN};
use wazi_service::{Service, SubmitOptions};
use wazi_storage::{ExecStats, PageStore};
use wazi_workload::{
    generate_knn_batch, generate_queries_with_seed, sample_point_queries, uniform_dataset, RwStep,
    SELECTIVITIES,
};

use crate::harness::Built;
use crate::inputs::{self, Common, KNN_K, REGION};
use crate::stats;

type Values = Vec<(&'static str, f64)>;

/// Nanoseconds `work` took.
fn time_ns(work: impl FnOnce()) -> f64 {
    let start = Instant::now();
    work();
    start.elapsed().as_nanos() as f64
}

/// Runs every probe.
pub fn run(common: &Common, built: &Built) -> Values {
    let mut out: Values = vec![
        ("workload.dataset_gen_s", common.dataset_gen_s),
        ("workload.query_gen_s", common.query_gen_s),
        ("core.build.wazi_s", built.build_s),
        ("core.build.leaves", built.index.leaf_count() as f64),
        (
            "density.fit_s",
            built.index.build_report().density_fit_ns as f64 / 1e9,
        ),
    ];
    let seed = common.seed.wrapping_add(1_000);
    geom(common, seed, &mut out);
    storage(common, &mut out);
    density(common, &mut out);
    zindex(common, built, seed, &mut out);
    engine(built, seed, &mut out);
    snapshot(built, seed, &mut out);
    baselines(common, built, seed, &mut out);
    service_and_wire(common, built, seed, &mut out);
    out
}

/// A rectangle holding about half the points.
fn half_selective(points: &[Point]) -> Rect {
    let mut xs: Vec<f64> = points.iter().step_by(997).map(|p| p.x).collect();
    xs.sort_by(f64::total_cmp);
    Rect::from_coords(0.0, 0.0, xs[xs.len() / 2], 1.0)
}

fn geom(common: &Common, seed: u64, out: &mut Values) {
    let rect = half_selective(&common.points);
    let contains = time_ns(|| {
        let inside = common.points.iter().filter(|p| rect.contains(p)).count();
        black_box(inside);
    });
    out.push((
        "geom.rect_contains_ns",
        contains / common.points.len() as f64,
    ));
    let boxes = inputs::four_selectivities(25_000, seed);
    let hot = Rect::from_coords(0.3, 0.3, 0.7, 0.7);
    let overlaps = time_ns(|| {
        let hits = boxes.iter().filter(|b| hot.overlaps(b)).count();
        black_box(hits);
    });
    out.push(("geom.rect_overlaps_ns", overlaps / boxes.len() as f64));
}

fn storage(common: &Common, out: &mut Values) {
    let mut store = PageStore::new(256);
    for chunk in common.points.chunks(256) {
        store.allocate(chunk.to_vec());
    }
    let rect = half_selective(&common.points);
    let mut stats = ExecStats::default();
    let passes: Vec<f64> = (0..5)
        .map(|_| {
            time_ns(|| {
                let inside: u64 = store.pages().map(|p| p.count_in(&rect, &mut stats)).sum();
                black_box(inside);
            })
        })
        .collect();
    out.push((
        "storage.filter_ns_per_point",
        stats::median(&passes) / common.points.len() as f64,
    ));
    // A probe that misses compares the whole page.
    let absent = Point::new(2.0, 2.0);
    let probe = time_ns(|| {
        let found = store
            .pages()
            .filter(|p| p.probe(&absent, &mut stats))
            .count();
        black_box(found);
    });
    out.push((
        "storage.probe_ns_per_page",
        probe / store.page_count() as f64,
    ));
}

fn density(common: &Common, out: &mut Values) {
    // The full fit is timed by the index build (`density.fit_s`); estimates
    // are timed on a model of a tenth of the points.
    let sample: Vec<Point> = common.points.iter().step_by(10).copied().collect();
    let model = Rfde::fit(&sample, RfdeConfig::default());
    let estimate = time_ns(|| {
        let total: f64 = common.train.iter().map(|r| model.estimate_count(r)).sum();
        black_box(total);
    });
    out.push(("density.estimate_ns", estimate / common.train.len() as f64));
}

/// Mean µs of `range_count` over `rects`, and the work it did.
fn range_us(index: &dyn SpatialIndex, rects: &[Rect]) -> (f64, ExecStats) {
    let mut stats = ExecStats::default();
    let ns = time_ns(|| {
        let total: u64 = rects.iter().map(|r| index.range_count(r, &mut stats)).sum();
        black_box(total);
    });
    (ns / rects.len() as f64 / 1e3, stats)
}

fn zindex(common: &Common, built: &Built, seed: u64, out: &mut Values) {
    let index: &dyn SpatialIndex = built.index.as_ref();
    let names = [
        "core.zindex.range_us_sel0016",
        "core.zindex.range_us_sel0064",
        "core.zindex.range_us_sel0256",
        "core.zindex.range_us_sel1024",
    ];
    for (i, (name, selectivity)) in names.into_iter().zip(SELECTIVITIES).enumerate() {
        let rects = generate_queries_with_seed(REGION, 1_000, selectivity, seed + i as u64);
        out.push((name, range_us(index, &rects).0));
    }

    let mut stats = ExecStats::default();
    let mut probe_ns = |probes: Vec<Point>| {
        let ns = time_ns(|| {
            let found = probes
                .iter()
                .filter(|p| index.point_query(p, &mut stats))
                .count();
            black_box(found);
        });
        ns / probes.len() as f64
    };
    let hits = sample_point_queries(&common.points, 100_000, seed + 10);
    out.push(("core.zindex.point_hit_ns", probe_ns(hits)));
    out.push((
        "core.zindex.point_miss_ns",
        probe_ns(uniform_dataset(100_000, seed + 11)),
    ));

    let centres = generate_knn_batch(REGION, 2_000, KNN_K, seed + 12);
    let knn = time_ns(|| {
        for plan in &centres {
            if let Query::Knn { q, k } = plan {
                black_box(index.knn(q, *k, &mut stats));
            }
        }
    });
    out.push(("core.zindex.knn8_us", knn / centres.len() as f64 / 1e3));

    // The paper's comparison: the same rectangles on the base Z-index.
    let points = common.points.clone();
    let start = Instant::now();
    let base = ZIndex::build_base(points);
    out.push(("core.build.base_s", start.elapsed().as_secs_f64()));
    let rects = inputs::four_selectivities(1_000, seed + 13);
    let (base_us, base_work) = range_us(&base, &rects);
    let (wazi_us, wazi_work) = range_us(index, &rects);
    out.push(("core.wazi_vs_base.time_ratio", wazi_us / base_us));
    out.push((
        "core.wazi_vs_base.pages_ratio",
        wazi_work.pages_scanned as f64 / base_work.pages_scanned as f64,
    ));
    out.push((
        "core.wazi_vs_base.bbs_ratio",
        wazi_work.bbs_checked as f64 / base_work.bbs_checked as f64,
    ));
}

/// Wall nanoseconds of `batches` under `strategy`.
fn batches_ns(index: &dyn SpatialIndex, batches: &[Vec<Query>], strategy: BatchStrategy) -> f64 {
    let engine = QueryEngine::new(index).with_strategy(strategy);
    time_ns(|| {
        for batch in batches {
            black_box(
                engine
                    .execute_batch(batch)
                    .expect("generated batches are valid"),
            );
        }
    })
}

fn engine(built: &Built, seed: u64, out: &mut Values) {
    let index: &dyn SpatialIndex = built.index.as_ref();
    let scattered = inputs::scattered_batches(200, seed + 20);
    let auto = batches_ns(index, &scattered, BatchStrategy::Auto);
    let sequential = batches_ns(index, &scattered, BatchStrategy::Sequential);
    let mut stats = ExecStats::default();
    let direct = time_ns(|| {
        for query in scattered.iter().flatten() {
            if let Query::Range { rect, .. } = query {
                black_box(index.range_count(rect, &mut stats));
            }
        }
    });
    let queries = scattered.iter().map(Vec::len).sum::<usize>() as f64;
    out.push((
        "core.engine.overhead_ns_per_query",
        (auto - direct) / queries,
    ));
    out.push((
        "core.engine.auto_vs_sequential_ratio.scattered",
        auto / sequential,
    ));

    let hot = inputs::fused_batches(24, seed + 21);
    let auto = batches_ns(index, &hot, BatchStrategy::Auto);
    let sequential = batches_ns(index, &hot, BatchStrategy::Sequential);
    let fused = batches_ns(index, &hot, BatchStrategy::Fused);
    out.push((
        "core.engine.auto_vs_sequential_ratio.fused",
        auto / sequential,
    ));
    out.push(("core.engine.auto_vs_fused_ratio", auto / fused));
}

fn snapshot(built: &Built, seed: u64, out: &mut Values) {
    let versioned = VersionedIndex::new(ZIndex::clone(&built.index));
    let rects = inputs::four_selectivities(500, seed + 30);
    let (pinned_us, _) = range_us(&versioned.snapshot(), &rects);
    let (direct_us, _) = range_us(built.index.as_ref(), &rects);
    out.push(("core.snapshot.read_overhead_ratio", pinned_us / direct_us));

    let pins = 100_000;
    let pin = time_ns(|| {
        for _ in 0..pins {
            black_box(versioned.snapshot());
        }
    });
    out.push(("core.snapshot.pin_ns", pin / pins as f64));

    let bursts: Vec<Vec<WriteOp>> = inputs::t_mixed(16, 1, 256, seed + 31)
        .into_iter()
        .filter_map(|step| match step {
            RwStep::Writes(ops) => Some(ops),
            RwStep::Queries(_) => None,
        })
        .collect();
    let apply = time_ns(|| {
        for ops in &bursts {
            versioned.apply(ops).expect("the Z-index applies every op");
        }
    });
    let ops = bursts.iter().map(Vec::len).sum::<usize>() as f64;
    out.push((
        "core.snapshot.apply_us_per_burst",
        apply / bursts.len() as f64 / 1e3,
    ));
    out.push(("core.snapshot.apply_ns_per_op", apply / ops));
}

fn baselines(common: &Common, built: &Built, seed: u64, out: &mut Values) {
    let rects = inputs::four_selectivities(500, seed + 40);
    let points = || common.points.clone();
    let train = &common.train;
    type Build<'a> = Box<dyn Fn() -> Box<dyn SpatialIndex> + 'a>;
    let builds: [(&str, &str, Build); 5] = [
        (
            "baselines.str.range_us",
            "baselines.str.pages_per_query",
            Box::new(|| Box::new(StrRTree::build(points(), 256))),
        ),
        (
            "baselines.cur.range_us",
            "baselines.cur.pages_per_query",
            Box::new(|| Box::new(CurTree::build(points(), train, 256))),
        ),
        (
            "baselines.flood.range_us",
            "baselines.flood.pages_per_query",
            Box::new(|| Box::new(FloodIndex::build(points(), train, 256))),
        ),
        (
            "baselines.quasii.range_us",
            "baselines.quasii.pages_per_query",
            Box::new(|| Box::new(Quasii::build(points(), train, 256))),
        ),
        (
            "baselines.zpgm.range_us",
            "baselines.zpgm.pages_per_query",
            Box::new(|| Box::new(ZOrderSorted::with_default_bits(points()))),
        ),
    ];
    let mut best = f64::MAX;
    for (time_name, pages_name, build) in builds {
        let index = build();
        let (us, work) = range_us(index.as_ref(), &rects);
        best = best.min(us);
        out.push((time_name, us));
        out.push((pages_name, work.pages_scanned as f64 / rects.len() as f64));
    }
    let (wazi_us, _) = range_us(built.index.as_ref(), &rects);
    out.push(("baselines.best_vs_wazi.time_ratio", best / wazi_us));
}

fn service_and_wire(common: &Common, built: &Built, seed: u64, out: &mut Values) {
    let index: Arc<dyn SpatialIndex> = built.index.clone();
    let service = Service::builder(index).start();
    let server = Server::bind(service, "127.0.0.1:0").expect("bind a loopback port");
    let probes = sample_point_queries(&common.points, 1_000, seed + 50);

    // One caller, idle service: what a lone submission costs.
    let (mut submits, mut trips) = (Vec::new(), Vec::new());
    for p in &probes {
        let start = Instant::now();
        let ticket = server
            .service()
            .submit(Query::point(*p))
            .ok()
            .and_then(|s| s.ticket());
        submits.push(start.elapsed().as_nanos() as f64);
        black_box(ticket.map(|t| t.wait()));
        trips.push(start.elapsed().as_nanos() as f64 / 1e3);
    }
    out.push(("service.submit_ns", stats::median(&submits)));
    out.push(("service.idle_roundtrip_us", stats::median(&trips)));

    // The one-at-a-time client over loopback.
    let connects: Vec<f64> = (0..20)
        .map(|_| {
            time_ns(|| {
                drop(Client::connect(
                    server.local_addr(),
                    ClientConfig::default(),
                ))
            }) / 1e3
        })
        .collect();
    out.push(("net.connect_us", stats::median(&connects)));
    let client = Client::connect(server.local_addr(), ClientConfig::default()).expect("connect");
    let mut response = None;
    let trips: Vec<f64> = probes
        .iter()
        .map(|p| time_ns(|| response = client.request(Query::point(*p)).ok()) / 1e3)
        .collect();
    out.push(("net.rpc_roundtrip_p50_us", stats::median(&trips)));
    out.push(("net.client.retries", client.retries() as f64));
    out.push(("net.client.reconnects", client.reconnects() as f64));
    drop(client);
    server.shutdown();

    // The codec on captured frames.
    let rect = common.train[0];
    let request = Frame::request(7, Query::range_count(rect), SubmitOptions::new());
    let response = Frame {
        request_id: 7,
        body: FrameBody::Response(Box::new(response.expect("the idle server answered"))),
    };
    let rounds = 20_000;
    let names = [
        (
            "net.wire.request_bytes",
            "net.wire.encode_request_ns",
            "net.wire.decode_request_ns",
        ),
        (
            "net.wire.response_bytes",
            "net.wire.encode_response_ns",
            "net.wire.decode_response_ns",
        ),
    ];
    for ((bytes_name, encode_name, decode_name), frame) in
        names.into_iter().zip([request, response])
    {
        let bytes = frame.encode();
        out.push((bytes_name, bytes.len() as f64));
        let encode = time_ns(|| (0..rounds).for_each(|_| drop(black_box(frame.encode()))));
        out.push((encode_name, encode / rounds as f64));
        let raw = wire::read_raw_frame(&mut bytes.as_slice(), DEFAULT_MAX_FRAME_LEN)
            .expect("an encoded frame reads back")
            .expect("one frame");
        let decode = time_ns(|| (0..rounds).for_each(|_| drop(black_box(raw.body()))));
        out.push((decode_name, decode / rounds as f64));
    }
    let block = vec![0xA5u8; 64 * 1024];
    let sums = 200;
    let checksum = time_ns(|| {
        for _ in 0..sums {
            black_box(wire::checksum(black_box(&block)));
        }
    });
    out.push((
        "net.wire.checksum_ns_per_kib",
        checksum / (sums * 64) as f64,
    ));
}
