//! Compact nonzero-entry representations.
//!
//! The hot SpMM kernels stream long entry arrays and are bound by memory
//! traffic as much as by arithmetic; a [`Triplet`] spends 24 bytes per
//! nonzero on two `usize` indices that, at every scale this simulator runs,
//! fit in 32 bits. [`SmallTriplet`] is the 16-byte small-index variant
//! (`u32` row, `u32` col, `f64` value) used by the per-rank execution
//! structures; the [`Entry`] trait lets one generic kernel consume either
//! width.
//!
//! Index-width policy (see DESIGN.md §13): narrowing is *checked* at
//! construction — coordinates `>= 2^32` are rejected explicitly
//! ([`SmallTriplet::try_new`]), never silently truncated. Values stay `f64`
//! in every representation, so compact layouts are bit-identical in output
//! to wide ones.

use crate::{Scalar, Triplet};

/// The exclusive upper bound on coordinates representable by the small-index
/// (`u32`) entry layout.
pub const SMALL_INDEX_LIMIT: usize = 1 << 32;

/// Whether a `rows x cols` matrix can use small-index (`u32`) layouts.
pub fn fits_small_index(rows: usize, cols: usize) -> bool {
    rows <= SMALL_INDEX_LIMIT && cols <= SMALL_INDEX_LIMIT
}

/// A sparse nonzero entry, abstracted over index width.
///
/// Implemented by [`Triplet`] (wide, 24 bytes) and [`SmallTriplet`]
/// (compact, 16 bytes); kernels generic over `Entry` compile to the same
/// inner loops with narrower index loads.
pub trait Entry: Copy + Send + Sync + 'static {
    /// Row index of the nonzero.
    fn row(&self) -> usize;
    /// Column index of the nonzero.
    fn col(&self) -> usize;
    /// Numeric value of the nonzero.
    fn val(&self) -> Scalar;
    /// The entry `(row, col, val)`, at coordinates taken from entries of
    /// the same width.
    ///
    /// # Panics
    ///
    /// Panics if a coordinate does not fit the width.
    fn from_parts(row: usize, col: usize, val: Scalar) -> Self;
}

impl Entry for Triplet {
    #[inline(always)]
    fn row(&self) -> usize {
        self.row
    }

    #[inline(always)]
    fn col(&self) -> usize {
        self.col
    }

    #[inline(always)]
    fn val(&self) -> Scalar {
        self.val
    }

    #[inline(always)]
    fn from_parts(row: usize, col: usize, val: Scalar) -> Self {
        Triplet { row, col, val }
    }
}

/// A 16-byte `(u32 row, u32 col, f64 value)` nonzero entry.
///
/// The compact currency of the per-rank execution structures: 1.5x less
/// entry traffic than [`Triplet`] in the kernels, with the value kept at
/// full `f64` width so results are bit-identical.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmallTriplet {
    /// Row index (often rank- or panel-local).
    pub row: u32,
    /// Column index (global or stripe-local, per the owning structure).
    pub col: u32,
    /// Numeric value of the nonzero.
    pub val: Scalar,
}

impl SmallTriplet {
    /// Creates a compact entry, checking that both indices fit in `u32`.
    ///
    /// Returns `None` when either coordinate is `>= 2^32` — the explicit
    /// rejection point that keeps narrowing from ever truncating.
    #[inline]
    pub fn try_new(row: usize, col: usize, val: Scalar) -> Option<Self> {
        let row = u32::try_from(row).ok()?;
        let col = u32::try_from(col).ok()?;
        Some(SmallTriplet { row, col, val })
    }

    /// Creates a compact entry from coordinates already known to fit.
    ///
    /// # Panics
    ///
    /// Panics if either coordinate is `>= 2^32`; callers guard whole
    /// structures once via [`fits_small_index`] rather than per entry.
    #[inline]
    pub fn new(row: usize, col: usize, val: Scalar) -> Self {
        SmallTriplet::try_new(row, col, val)
            .expect("coordinate exceeds the u32 small-index limit; use wide Triplet storage")
    }

    /// Widens back to a [`Triplet`].
    #[inline]
    pub fn widen(&self) -> Triplet {
        Triplet::new(self.row as usize, self.col as usize, self.val)
    }
}

impl TryFrom<Triplet> for SmallTriplet {
    type Error = Triplet;

    /// Checked narrowing; the offending wide triplet is returned on failure.
    fn try_from(t: Triplet) -> Result<Self, Triplet> {
        SmallTriplet::try_new(t.row, t.col, t.val).ok_or(t)
    }
}

impl Entry for SmallTriplet {
    #[inline(always)]
    fn row(&self) -> usize {
        self.row as usize
    }

    #[inline(always)]
    fn col(&self) -> usize {
        self.col as usize
    }

    #[inline(always)]
    fn val(&self) -> Scalar {
        self.val
    }

    #[inline(always)]
    fn from_parts(row: usize, col: usize, val: Scalar) -> Self {
        SmallTriplet::new(row, col, val)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_triplet_is_16_bytes() {
        assert_eq!(std::mem::size_of::<SmallTriplet>(), 16);
        assert_eq!(std::mem::size_of::<Triplet>(), 24);
    }

    #[test]
    fn narrowing_is_checked_not_truncating() {
        assert!(SmallTriplet::try_new(1 << 32, 0, 1.0).is_none());
        assert!(SmallTriplet::try_new(0, 1 << 32, 1.0).is_none());
        let boundary = SmallTriplet::try_new((1 << 32) - 1, 0, 2.0).unwrap();
        assert_eq!(boundary.row(), (1 << 32) - 1);
        let wide = Triplet::new(0, 1 << 33, 3.0);
        assert_eq!(SmallTriplet::try_from(wide), Err(wide));
    }

    #[test]
    fn widen_round_trips() {
        let t = Triplet::new(7, 11, 0.25);
        assert_eq!(SmallTriplet::try_from(t).unwrap().widen(), t);
    }

    #[test]
    fn entry_views_agree() {
        let t = Triplet::new(3, 9, 1.5);
        let s = SmallTriplet::new(3, 9, 1.5);
        assert_eq!((t.row(), t.col(), t.val()), (Entry::row(&s), Entry::col(&s), Entry::val(&s)));
    }

    #[test]
    fn fits_small_index_boundary() {
        assert!(fits_small_index(SMALL_INDEX_LIMIT, 4));
        assert!(!fits_small_index(SMALL_INDEX_LIMIT + 1, 4));
    }
}
