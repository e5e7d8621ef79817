//! I/O round-trips at the `u32` index boundary, and chunked-reader
//! equivalence.
//!
//! The compact (small-index) layouts narrow coordinates to `u32` — but only
//! behind explicit, checked construction. The file formats themselves are
//! wide (`u64` binary fields, decimal text): coordinates at and beyond
//! `2^32` must survive a round-trip exactly, and every narrowing path must
//! reject them rather than silently truncate.

use std::io::Read;
use twoface_matrix::io::{read_binary, read_market, write_binary, write_market};
use twoface_matrix::{fits_small_index, CooMatrix, SmallTriplet, Triplet, SMALL_INDEX_LIMIT};

/// A matrix whose column space crosses the `u32` boundary: indices at
/// `2^32 - 1` (the largest representable small index), `2^32`, and beyond.
fn boundary_matrix() -> CooMatrix {
    let cols = SMALL_INDEX_LIMIT + 10;
    CooMatrix::from_triplets(
        4,
        cols,
        vec![
            (0, 0, 1.5),
            (1, SMALL_INDEX_LIMIT - 1, -2.25), // u32::MAX: still small-representable
            (2, SMALL_INDEX_LIMIT, 4.125),     // 2^32: first wide-only index
            (3, cols - 1, -8.0),
        ],
    )
    .expect("shape admits the indices")
}

#[test]
fn binary_round_trips_above_u32_exactly() {
    let m = boundary_matrix();
    let mut buf = Vec::new();
    write_binary(&mut buf, &m).expect("write");
    let back = read_binary(buf.as_slice()).expect("read");
    assert_eq!(back, m, "binary round-trip must be exact at 2^32-boundary columns");
    assert_eq!(back.triplets()[2].col, SMALL_INDEX_LIMIT);
}

#[test]
fn market_round_trips_above_u32_exactly() {
    let m = boundary_matrix();
    let mut buf = Vec::new();
    write_market(&mut buf, &m).expect("write");
    let back = read_market(buf.as_slice()).expect("read");
    assert_eq!(back, m, "market round-trip must be exact at 2^32-boundary columns");
    assert_eq!(back.triplets()[3].col, SMALL_INDEX_LIMIT + 9);
}

#[test]
fn narrowing_rejects_wide_indices_explicitly() {
    // The small-entry constructor refuses, never wraps.
    assert!(SmallTriplet::try_new(0, SMALL_INDEX_LIMIT - 1, 1.0).is_some());
    assert!(SmallTriplet::try_new(0, SMALL_INDEX_LIMIT, 1.0).is_none());
    assert!(SmallTriplet::try_new(SMALL_INDEX_LIMIT, 0, 1.0).is_none());
    // A wide triplet converts only when it fits.
    let wide = Triplet::new(0, SMALL_INDEX_LIMIT + 3, 2.0);
    assert_eq!(SmallTriplet::try_from(wide), Err(wide));
    // The shape-level gate matches the per-entry one.
    assert!(fits_small_index(4, SMALL_INDEX_LIMIT));
    assert!(!fits_small_index(4, SMALL_INDEX_LIMIT + 1));
}

/// A reader that hands out at most `chunk` bytes per `read` call — the
/// pathological streaming consumer every codec must tolerate.
struct TrickleReader<'a> {
    data: &'a [u8],
    pos: usize,
    chunk: usize,
}

impl Read for TrickleReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.chunk.min(buf.len()).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

#[test]
fn chunked_binary_reads_equal_one_shot_reads() {
    let m = boundary_matrix();
    let mut buf = Vec::new();
    write_binary(&mut buf, &m).expect("write");
    let one_shot = read_binary(buf.as_slice()).expect("one-shot read");
    for chunk in [1usize, 7, 64] {
        let trickled = read_binary(TrickleReader { data: &buf, pos: 0, chunk })
            .unwrap_or_else(|e| panic!("trickle read (chunk {chunk}) failed: {e}"));
        assert_eq!(trickled, one_shot, "chunk size {chunk} changed the decoded matrix");
    }
}

#[test]
fn chunked_market_reads_equal_one_shot_reads() {
    let m = boundary_matrix();
    let mut buf = Vec::new();
    write_market(&mut buf, &m).expect("write");
    let one_shot = read_market(buf.as_slice()).expect("one-shot read");
    for chunk in [1usize, 7, 64] {
        let trickled = read_market(TrickleReader { data: &buf, pos: 0, chunk })
            .unwrap_or_else(|e| panic!("trickle read (chunk {chunk}) failed: {e}"));
        assert_eq!(trickled, one_shot, "chunk size {chunk} changed the decoded matrix");
    }
}
