//! The update-support matrix of the baseline indexes, written as one unit
//! test per baseline so the support status of each is documented (and
//! pinned) in executable form:
//!
//! | index  | insert | delete |
//! |--------|--------|--------|
//! | STR    | yes    | no     |
//! | CUR    | yes    | no     |
//! | Flood  | yes    | yes    |
//! | Zpgm   | yes    | no     |
//! | QUASII | no     | no     |
//!
//! Unsupported operations must fail with the *typed*
//! [`IndexError::UpdateUnsupported`] naming the index, never a panic and
//! never `Unsupported`, the immutable snapshot's refusal — that is what
//! lets the versioned writer (`wazi_core::VersionedIndex::with_rebuild`)
//! recognise a bulk-only index and fall back to a rebuild.

use wazi_baselines::{CurTree, FloodIndex, Quasii, StrRTree, ZOrderSorted};
use wazi_core::{IndexError, SpatialIndex, UpdateOp};
use wazi_geom::{Point, Rect};
use wazi_storage::ExecStats;

fn dataset(n: usize) -> Vec<Point> {
    (0..n)
        .map(|i| Point::new((i % 40) as f64 / 40.0, (i / 40) as f64 / 25.0))
        .collect()
}

fn training(n: usize) -> Vec<Rect> {
    (0..n)
        .map(|i| {
            let x = (i % 10) as f64 / 10.0;
            let y = (i / 10) as f64 / 10.0;
            Rect::from_coords(x, y, (x + 0.15).min(1.0), (y + 0.15).min(1.0))
        })
        .collect()
}

/// Inserting and then probing must succeed; the probe goes through the
/// trait so layout differences between the baselines don't matter.
fn assert_insert_supported(index: &mut dyn SpatialIndex) {
    let p = Point::new(0.5013, 0.5017);
    let before = index.len();
    index
        .insert(p)
        .unwrap_or_else(|e| panic!("{} must support insert: {e}", index.name()));
    assert_eq!(index.len(), before + 1);
    let mut stats = ExecStats::default();
    assert!(
        index.point_query(&p, &mut stats),
        "{} lost the inserted point",
        index.name()
    );
}

fn assert_delete_unsupported(index: &mut dyn SpatialIndex, name: &'static str) {
    let err = index.delete(&Point::new(0.1, 0.1)).unwrap_err();
    assert_eq!(
        err,
        IndexError::UpdateUnsupported {
            index: name.to_owned(),
            op: UpdateOp::Delete
        }
    );
}

#[test]
fn str_supports_insert_but_not_delete() {
    let mut index = StrRTree::build(dataset(1_000), 64);
    assert_insert_supported(&mut index);
    assert_delete_unsupported(&mut index, "STR");
}

#[test]
fn cur_supports_insert_but_not_delete() {
    let mut index = CurTree::build(dataset(1_000), &training(50), 64);
    assert_insert_supported(&mut index);
    assert_delete_unsupported(&mut index, "CUR");
}

#[test]
fn flood_supports_insert_and_delete() {
    let mut index = FloodIndex::build(dataset(1_000), &training(50), 64);
    assert_insert_supported(&mut index);
    let victim = Point::new(0.5013, 0.5017);
    assert_eq!(index.delete(&victim), Ok(true));
    assert_eq!(index.delete(&victim), Ok(false));
    let mut stats = ExecStats::default();
    assert!(!index.point_query(&victim, &mut stats));
}

#[test]
fn zpgm_supports_insert_but_not_delete() {
    let mut index = ZOrderSorted::build(dataset(1_000), 10);
    assert_insert_supported(&mut index);
    assert_delete_unsupported(&mut index, "Zpgm");
}

#[test]
fn quasii_supports_neither_insert_nor_delete() {
    let mut index = Quasii::build(dataset(1_000), &training(50), 64);
    assert_eq!(
        index.insert(Point::new(0.5, 0.5)),
        Err(IndexError::UpdateUnsupported {
            index: "QUASII".to_owned(),
            op: UpdateOp::Insert
        })
    );
    assert_delete_unsupported(&mut index, "QUASII");
    // And being rejected changed nothing.
    assert_eq!(index.len(), 1_000);
}
