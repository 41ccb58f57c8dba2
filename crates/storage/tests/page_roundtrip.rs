//! Property tests for the binary page codec: every well-formed encoding
//! round-trips exactly, and *no* corrupted input — truncation, extension,
//! single-bit flips, or random garbage — may decode or panic. This is the
//! integrity contract a future disk backend inherits.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wazi_geom::Point;
use wazi_storage::{Page, PageId};

fn random_page(rng: &mut StdRng) -> Page {
    let len = rng.gen_range(0..64);
    let points = (0..len)
        .map(|_| Point::new(rng.gen_range(-1e6..1e6), rng.gen_range(-1e6..1e6)))
        .collect();
    Page::new(PageId(rng.gen_range(0..1u32 << 20)), points)
}

#[test]
fn random_pages_round_trip_bit_exactly() {
    let mut rng = StdRng::seed_from_u64(0x009a_9e01);
    for _ in 0..200 {
        let page = random_page(&mut rng);
        let bytes = page.to_bytes();
        let decoded = Page::from_bytes(&bytes).expect("well-formed page must decode");
        assert_eq!(decoded.id(), page.id());
        assert_eq!(decoded.to_vec(), page.to_vec());
        assert_eq!(decoded.bbox(), page.bbox());
        // Re-encoding is deterministic.
        assert_eq!(decoded.to_bytes(), bytes);
    }
}

#[test]
fn every_truncation_is_rejected_without_panic() {
    let mut rng = StdRng::seed_from_u64(0x009a_9e02);
    for _ in 0..40 {
        let bytes = random_page(&mut rng).to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                Page::from_bytes(&bytes[..cut]).is_none(),
                "truncation to {cut} of {} bytes must be rejected",
                bytes.len()
            );
        }
    }
}

#[test]
fn every_single_bit_flip_is_rejected_without_panic() {
    let mut rng = StdRng::seed_from_u64(0x009a_9e03);
    for _ in 0..20 {
        let bytes = random_page(&mut rng).to_bytes();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[i] ^= 1 << bit;
                assert!(
                    Page::from_bytes(&corrupt).is_none(),
                    "bit flip at byte {i} bit {bit} must be rejected"
                );
            }
        }
    }
}

#[test]
fn random_garbage_never_panics() {
    let mut rng = StdRng::seed_from_u64(0x009a_9e04);
    for _ in 0..500 {
        let len = rng.gen_range(0..256);
        let garbage: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u32) as u8).collect();
        // Overwhelmingly None; decoding must simply never panic.
        let _ = Page::from_bytes(&garbage);
    }
}

#[test]
fn extension_and_swapped_tails_are_rejected() {
    let mut rng = StdRng::seed_from_u64(0x009a_9e05);
    let a = random_page(&mut rng).to_bytes();
    let mut extended = a.clone();
    extended.extend_from_slice(&[0u8; 16]);
    assert!(Page::from_bytes(&extended).is_none());

    // Splicing the checksum of one page onto the body of another fails.
    let b = random_page(&mut rng).to_bytes();
    if a.len() == b.len() && a != b {
        let mut spliced = a[..a.len() - 8].to_vec();
        spliced.extend_from_slice(&b[b.len() - 8..]);
        assert!(Page::from_bytes(&spliced).is_none());
    }
}
