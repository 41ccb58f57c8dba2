//! Model-based property tests for the page scan primitives (`count_in`,
//! `count_in_shared`, `filter_into_shared` and the probes): a [`Page`] of
//! any length — empty, exact blocks, ragged tail — built by `new` or by a
//! random `push`/`remove` history must answer and charge exactly like a
//! plain `Vec<Point>` filtered with `Rect::contains`, on both the filtered
//! and the whole-page branch, and the NaN padding of the block layout must
//! never be returned, counted or probed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wazi_geom::{Point, Rect};
use wazi_storage::{ExecStats, Page, PageId};

/// Three blocks of eight and one point more.
const MAX_LEN: usize = 3 * 8 + 1;

/// Coordinates on a coarse grid, so duplicates, points on a rectangle's
/// edge and points on the bounding box's boundary all occur.
fn grid_point(rng: &mut StdRng) -> Point {
    Point::new(
        f64::from(rng.gen_range(0..8u32)) / 8.0,
        f64::from(rng.gen_range(0..8u32)) / 8.0,
    )
}

/// The model's `Page::remove`: first occurrence, last point moved in.
fn model_remove(model: &mut Vec<Point>, p: &Point) -> bool {
    match model.iter().position(|q| q == p) {
        Some(pos) => {
            model.swap_remove(pos);
            true
        }
        None => false,
    }
}

/// Rectangles in every relation to `bbox`: containing it, equal to it,
/// touching one edge from outside, cutting it, missing it, and one point.
fn rectangles(bbox: Rect, model: &[Point], rng: &mut StdRng) -> Vec<Rect> {
    let mut rects = vec![
        Rect::from_coords(-1.0, -1.0, 2.0, 2.0),
        Rect::from_coords(5.0, 5.0, 6.0, 6.0),
        Rect::from_coords(0.25, 0.25, 0.625, 0.5),
        Rect::from_coords(0.0, 0.0, 0.375, 1.0),
    ];
    if !bbox.is_empty() {
        rects.push(bbox);
        rects.push(Rect::from_coords(
            bbox.lo.x - 1.0,
            bbox.lo.y,
            bbox.lo.x,
            bbox.hi.y,
        ));
        rects.push(Rect::from_coords(
            bbox.lo.x,
            bbox.hi.y,
            bbox.hi.x,
            bbox.hi.y + 1.0,
        ));
        rects.push(Rect::new(bbox.lo, bbox.center()));
    }
    if !model.is_empty() {
        let p = model[rng.gen_range(0..model.len())];
        rects.push(Rect::new(p, p));
    }
    rects
}

/// Every scan primitive of `page` against the model, for one rectangle.
fn check_scans(page: &Page, model: &[Point], query: &Rect) {
    let expected: Vec<Point> = model
        .iter()
        .copied()
        .filter(|p| query.contains(p))
        .collect();
    let charge = ExecStats {
        pages_scanned: 1,
        points_scanned: model.len() as u64,
        ..ExecStats::default()
    };
    let shared_charge = ExecStats {
        pages_scanned: 0,
        ..charge
    };

    let mut count_stats = ExecStats::default();
    assert_eq!(
        page.count_in(query, &mut count_stats),
        expected.len() as u64
    );
    assert_eq!(count_stats, charge);

    let mut shared_stats = ExecStats::default();
    assert_eq!(
        page.count_in_shared(query, &mut shared_stats),
        expected.len() as u64
    );
    assert_eq!(shared_stats, shared_charge);

    // Appending after a sentinel shows the collect never touches what the
    // vector already held.
    let sentinel = Point::new(-7.0, -7.0);
    let mut collected = vec![sentinel];
    let mut filter_stats = ExecStats::default();
    page.filter_into_shared(query, &mut collected, &mut filter_stats);
    assert_eq!(collected[0], sentinel);
    assert_eq!(
        &collected[1..],
        expected,
        "collected order is arrival order"
    );
    assert_eq!(filter_stats, shared_charge);

    assert!(collected.iter().all(|p| !p.x.is_nan() && !p.y.is_nan()));
}

/// Probes of `page` against the model: every stored point (hit at its first
/// position), absent points and the padding value itself.
fn check_probes(page: &Page, model: &[Point], rng: &mut StdRng) {
    let mut probes: Vec<Point> = model.to_vec();
    probes.extend((0..4).map(|_| grid_point(rng)));
    probes.push(Point::new(0.5, 9.0));
    probes.push(Point::new(f64::NAN, f64::NAN));
    probes.push(Point::new(0.5, f64::NAN));
    for p in probes {
        let position = model.iter().position(|q| *q == p);
        let charged = position.map_or(model.len(), |i| i + 1) as u64;

        let mut stats = ExecStats::default();
        assert_eq!(page.probe(&p, &mut stats), position.is_some());
        let expected = ExecStats {
            pages_scanned: 1,
            points_scanned: charged,
            ..ExecStats::default()
        };
        assert_eq!(stats, expected, "probe of {p} in a page of {}", model.len());

        let mut shared = ExecStats::default();
        assert_eq!(page.probe_shared(&p, &mut shared), position.is_some());
        assert_eq!(
            shared,
            ExecStats {
                pages_scanned: 0,
                ..expected
            }
        );
    }
}

/// Everything observable about `page` against the model.
fn check_page(page: &Page, model: &[Point], rng: &mut StdRng) {
    assert_eq!(page.len(), model.len());
    assert_eq!(page.is_empty(), model.is_empty());
    assert_eq!(page.to_vec(), model);
    assert_eq!(page.iter().collect::<Vec<_>>(), model);
    assert_eq!(page.bbox(), Rect::bounding(model), "the box stays tight");
    for query in rectangles(page.bbox(), model, rng) {
        check_scans(page, model, &query);
    }
    check_probes(page, model, rng);
}

#[test]
fn pages_built_by_new_scan_like_the_model_at_every_length() {
    let mut rng = StdRng::seed_from_u64(0x5ca9_0001);
    for len in 0..=MAX_LEN {
        for _ in 0..8 {
            let model: Vec<Point> = (0..len).map(|_| grid_point(&mut rng)).collect();
            let page = Page::new(PageId(len as u32), model.clone());
            check_page(&page, &model, &mut rng);
        }
    }
}

#[test]
fn push_and_remove_histories_scan_like_the_model_after_every_step() {
    let mut rng = StdRng::seed_from_u64(0x5ca9_0002);
    for history in 0..40 {
        let mut model: Vec<Point> = Vec::new();
        let mut page = Page::new(PageId(history), Vec::new());
        for _ in 0..120 {
            // Histories drift up to the longest length and back down, so
            // blocks are opened and closed again at every boundary.
            let grow = model.len() < MAX_LEN && (model.is_empty() || rng.gen_bool(0.55));
            if grow {
                let p = grid_point(&mut rng);
                model.push(p);
                assert_eq!(page.push(p), model.len());
            } else {
                // Mostly stored points (so boundary points are removed and
                // the box must shrink), sometimes an absent one.
                let p = if rng.gen_bool(0.8) {
                    model[rng.gen_range(0..model.len())]
                } else {
                    grid_point(&mut rng)
                };
                assert_eq!(page.remove(&p), model_remove(&mut model, &p));
            }
            assert_eq!(page.bbox(), Rect::bounding(&model));
            assert_eq!(page.to_vec(), model);
        }
        check_page(&page, &model, &mut rng);
        // Drain to empty: the last block goes, the box is empty again.
        while let Some(&p) = model.first() {
            assert!(page.remove(&p));
            model_remove(&mut model, &p);
            assert_eq!(page.bbox(), Rect::bounding(&model));
            assert_eq!(page.to_vec(), model);
        }
        check_page(&page, &model, &mut rng);
    }
}

#[test]
fn both_branches_agree_on_the_same_page() {
    // The same points answered through the whole-page branch (the query
    // contains the box) and the filtered branch (the query is the box minus
    // nothing the page holds, but does not contain it) must be identical.
    let mut rng = StdRng::seed_from_u64(0x5ca9_0003);
    for len in 1..=MAX_LEN {
        let mut model: Vec<Point> = (0..len).map(|_| grid_point(&mut rng)).collect();
        // One far point keeps the box wider than the second query.
        model.push(Point::new(3.0, 3.0));
        let page = Page::new(PageId(0), model.clone());
        let whole = Rect::from_coords(0.0, 0.0, 3.0, 3.0);
        let cut = Rect::from_coords(0.0, 0.0, 1.0, 1.0);
        assert!(whole.contains_rect(&page.bbox()));
        assert!(!cut.contains_rect(&page.bbox()));
        let (mut all, mut most) = (Vec::new(), Vec::new());
        let mut stats = ExecStats::default();
        page.filter_into_shared(&whole, &mut all, &mut stats);
        page.filter_into_shared(&cut, &mut most, &mut stats);
        assert_eq!(all, model);
        assert_eq!(most, model[..len]);
    }
}

#[test]
fn a_stored_nan_coordinate_is_never_accepted_with_the_whole_page() {
    // `Rect::bounding` leaves a NaN coordinate out of the box, so a query
    // containing the box must still not return the point `contains` rejects.
    let model = vec![
        Point::new(0.25, 0.25),
        Point::new(f64::NAN, 0.5),
        Point::new(0.75, 0.75),
    ];
    let everything = Rect::from_coords(-1.0, -1.0, 2.0, 2.0);
    let built = Page::new(PageId(0), model.clone());
    let mut pushed = Page::new(PageId(0), Vec::new());
    for p in &model {
        pushed.push(*p);
    }
    for page in [built, pushed] {
        let mut stats = ExecStats::default();
        assert_eq!(page.count_in(&everything, &mut stats), 2);
        assert_eq!(page.count_in_shared(&everything, &mut stats), 2);
        let mut out = Vec::new();
        page.filter_into_shared(&everything, &mut out, &mut stats);
        assert_eq!(out, vec![model[0], model[2]]);
        assert_eq!(stats.points_scanned, 9);
        assert_eq!(stats.pages_scanned, 1);
        assert_eq!(page.len(), 3);
    }
}
