//! 1D partitioning geometry: row blocks, megatiles, and stripe ranges.
//!
//! The per-nonzero lookups — [`OneDimLayout::owner_of_row`],
//! [`OneDimLayout::owner_of_col`] and [`OneDimLayout::stripe_of_col`] — run
//! once per nonzero in every profile, rank build, one-shot routing walk and
//! streamed pass, so they divide by nothing. [`OneDimLayout::new`]
//! precomputes each block's size and each divisor's reciprocal, and a lookup
//! is a compare, a multiply-high or two and a few multiply-adds. They are
//! `#[inline]`, so the other crates' per-nonzero loops inline them instead of
//! calling across the crate boundary. The reciprocals are exact for every index below
//! `2^32`, which covers every layout the compact (`u32`) rank structures
//! accept; a layout with more than `2^32` rows or columns divides in
//! hardware instead, with the same results.

use std::ops::Range;
use twoface_matrix::fits_small_index;

/// The 1D partitioning of an `N × M` sparse matrix over `p` nodes, divided
/// into sparse stripes of width `W` (§2.2, §4.1).
///
/// * Node `i` owns a contiguous block of rows of `A` (and the matching rows
///   of `C`), plus the block of `B` rows indexed by its megatile's columns.
/// * Each megatile (row block × column block) is subdivided into *sparse
///   stripes* of `W` consecutive columns; the matching `W` rows of `B` form
///   the *dense stripe* owned by the column block's owner.
///
/// Stripes are enumerated globally: all stripes of column-owner 0 first, then
/// owner 1, and so on; a `(rank, stripe)` pair identifies one sparse stripe.
///
/// # Example
///
/// ```
/// use twoface_partition::OneDimLayout;
///
/// let layout = OneDimLayout::new(100, 100, 4, 10);
/// assert_eq!(layout.row_range(0), 0..25);
/// assert_eq!(layout.num_stripes(), 12); // ceil(25/10) = 3 stripes per block
/// assert_eq!(layout.stripe_owner(3), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OneDimLayout {
    rows: usize,
    cols: usize,
    p: usize,
    /// Per-stripe `(owner, col_start, col_end)`.
    stripes: Vec<(usize, usize, usize)>,
    /// What the per-nonzero lookups precompute, boxed so the layout keeps
    /// its seven-word inline size: the serving layer's plan cache charges
    /// `size_of::<PartitionPlan>()` per plan, and that count is gated.
    lookup: Box<Lookup>,
}

/// The stripe width and everything the per-nonzero lookups would otherwise
/// recompute per call.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Lookup {
    stripe_width: usize,
    row_blocks: Blocks,
    col_blocks: Blocks,
    /// Stripes in one larger and in one smaller column block.
    block_stripes: (usize, usize),
    /// Division by the stripe width.
    per_stripe: Divisor,
}

impl OneDimLayout {
    /// Creates the layout for an `rows × cols` matrix over `p` nodes with
    /// stripe width `stripe_width`.
    ///
    /// # Panics
    ///
    /// Panics if `p == 0`, `stripe_width == 0`, or `p > rows.max(1)`.
    pub fn new(rows: usize, cols: usize, p: usize, stripe_width: usize) -> OneDimLayout {
        assert!(p > 0, "node count must be positive");
        assert!(stripe_width > 0, "stripe width must be positive");
        assert!(p <= rows.max(1), "cannot distribute {rows} rows over {p} nodes");
        let narrow = fits_small_index(rows, cols);
        let row_blocks = Blocks::new(rows, p, narrow);
        let col_blocks = Blocks::new(cols, p, narrow);
        let mut stripes = Vec::new();
        for owner in 0..p {
            let block = col_blocks.range(owner);
            let mut start = block.start;
            while start < block.end {
                let end = (start + stripe_width).min(block.end);
                stripes.push((owner, start, end));
                start = end;
            }
        }
        let base = col_blocks.base;
        let lookup = Lookup {
            stripe_width,
            row_blocks,
            col_blocks,
            block_stripes: ((base + 1).div_ceil(stripe_width), base.div_ceil(stripe_width)),
            per_stripe: Divisor::new(stripe_width, narrow),
        };
        OneDimLayout { rows, cols, p, stripes, lookup: Box::new(lookup) }
    }

    /// Number of matrix rows (`N`).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of matrix columns (`M`).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of nodes (`p`).
    pub fn nodes(&self) -> usize {
        self.p
    }

    /// The configured stripe width (`W`). The last stripe of each column
    /// block may be narrower.
    pub fn stripe_width(&self) -> usize {
        self.lookup.stripe_width
    }

    /// The rows of `A` (and `C`) owned by `rank`.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= p`.
    pub fn row_range(&self, rank: usize) -> Range<usize> {
        assert!(rank < self.p, "rank {rank} out of range");
        self.lookup.row_blocks.range(rank)
    }

    /// The columns of `A` (equivalently, rows of `B`) owned by `rank`.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= p`.
    pub fn col_range(&self, rank: usize) -> Range<usize> {
        assert!(rank < self.p, "rank {rank} out of range");
        self.lookup.col_blocks.range(rank)
    }

    /// The rank owning column `col` of `A` (i.e. hosting row `col` of `B`).
    ///
    /// # Panics
    ///
    /// Panics if `col >= cols`.
    #[inline]
    pub fn owner_of_col(&self, col: usize) -> usize {
        assert!(col < self.cols, "column {col} out of range");
        self.lookup.col_blocks.locate(col).0
    }

    /// The rank owning row `row` of `A` (and of `C`).
    ///
    /// # Panics
    ///
    /// Panics if `row >= rows`.
    #[inline]
    pub fn owner_of_row(&self, row: usize) -> usize {
        assert!(row < self.rows, "row {row} out of range");
        self.lookup.row_blocks.locate(row).0
    }

    /// Total number of stripes across the matrix.
    pub fn num_stripes(&self) -> usize {
        self.stripes.len()
    }

    /// The column range of stripe `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s >= num_stripes()`.
    pub fn stripe_cols(&self, s: usize) -> Range<usize> {
        let (_, start, end) = self.stripes[s];
        start..end
    }

    /// The rank owning stripe `s`'s dense stripe (its columns of `A`, its
    /// rows of `B`).
    ///
    /// # Panics
    ///
    /// Panics if `s >= num_stripes()`.
    pub fn stripe_owner(&self, s: usize) -> usize {
        self.stripes[s].0
    }

    /// The stripe containing column `col`: the owner's first stripe plus the
    /// column's offset in its block over the stripe width.
    ///
    /// # Panics
    ///
    /// Panics if `col >= cols`.
    #[inline]
    pub fn stripe_of_col(&self, col: usize) -> usize {
        assert!(col < self.cols, "column {col} out of range");
        let (owner, offset) = self.lookup.col_blocks.locate(col);
        self.first_stripe(owner) + self.lookup.per_stripe.div(offset)
    }

    /// The stripes owned by `rank`, as a contiguous index range.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= p`.
    pub fn stripes_of_owner(&self, rank: usize) -> Range<usize> {
        assert!(rank < self.p, "rank {rank} out of range");
        let (big, small) = self.lookup.block_stripes;
        let first = self.first_stripe(rank);
        first..first + if rank < self.lookup.col_blocks.rem { big } else { small }
    }

    /// The index of `owner`'s first stripe: every stripe of the column
    /// blocks before it comes first, `block_stripes.0` per larger block and
    /// `block_stripes.1` per smaller one.
    #[inline]
    fn first_stripe(&self, owner: usize) -> usize {
        let (big, small) = self.lookup.block_stripes;
        let rem = self.lookup.col_blocks.rem;
        owner.min(rem) * big + owner.saturating_sub(rem) * small
    }
}

/// `n` items in `p` balanced blocks: the first `n % p` blocks hold
/// `n / p + 1` items and the rest `n / p`. The sizes and the divisors the
/// owner lookup needs are computed once, here.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Blocks {
    /// `n / p`, the size of a smaller block.
    base: usize,
    /// `n % p`, the number of larger blocks.
    rem: usize,
    /// Items in the larger blocks, which come first.
    big: usize,
    /// Division by `base + 1`, and by `base` (or 1 when it is 0).
    per_big: Divisor,
    per_small: Divisor,
}

impl Blocks {
    fn new(n: usize, p: usize, narrow: bool) -> Blocks {
        let (base, rem) = (n / p, n % p);
        Blocks {
            base,
            rem,
            big: (base + 1) * rem,
            per_big: Divisor::new(base + 1, narrow),
            per_small: Divisor::new(base.max(1), narrow),
        }
    }

    /// The half-open range of block `i`.
    fn range(&self, i: usize) -> Range<usize> {
        let start = i * self.base + i.min(self.rem);
        start..start + self.base + usize::from(i < self.rem)
    }

    /// The block holding item `x`, and `x`'s offset inside it.
    #[inline]
    fn locate(&self, x: usize) -> (usize, usize) {
        if x < self.big {
            let block = self.per_big.div(x);
            (block, x - block * (self.base + 1))
        } else {
            let y = x - self.big;
            let past = self.per_small.div(y);
            (self.rem + past, y - past * self.base)
        }
    }
}

/// Division by a fixed divisor `d >= 1`.
///
/// For a dividend `x < 2^32` this is one widening multiply and a shift:
/// with `c = ceil(2^64 / d)`, `x / d == (x * c) >> 64` exactly for every
/// `d` (Lemire, Kaser and Kurz, "Faster remainder by direct computation",
/// 2019, with 32-bit dividends and a 64-bit fraction). Writing
/// `c * d = 2^64 + e` with `0 <= e < d`, the error term `x * e / 2^64`
/// stays below 1 when `d <= 2^32`, and past that both sides are 0. Layouts
/// whose indices can reach `2^32` keep the hardware division.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Divisor {
    Reciprocal(u128),
    Hardware(usize),
}

impl Divisor {
    fn new(d: usize, narrow: bool) -> Divisor {
        if narrow {
            Divisor::Reciprocal((1u128 << 64).div_ceil(d as u128))
        } else {
            Divisor::Hardware(d)
        }
    }

    #[inline]
    fn div(self, x: usize) -> usize {
        match self {
            Divisor::Reciprocal(c) => ((x as u128 * c) >> 64) as usize,
            Divisor::Hardware(d) => x / d,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first index past the compact (`u32`) structures' range.
    const LIMIT: usize = 1 << 32;

    /// The block owning item `x`, by division: the lookup before the
    /// reciprocals, kept as the reference.
    fn owner_by_division(n: usize, p: usize, x: usize) -> usize {
        let base = n / p;
        let rem = n % p;
        let big = (base + 1) * rem; // items covered by the larger blocks
        if x < big {
            x / (base + 1)
        } else {
            rem + (x - big) / base.max(1)
        }
    }

    /// The stripe holding column `col`, by division, as the reference.
    fn stripe_by_division(layout: &OneDimLayout, col: usize) -> usize {
        let (cols, p, w) = (layout.cols(), layout.nodes(), layout.stripe_width());
        let (base, rem) = (cols / p, cols % p);
        let owner = owner_by_division(cols, p, col);
        let first =
            owner.min(rem) * (base + 1).div_ceil(w) + owner.saturating_sub(rem) * base.div_ceil(w);
        let block_start = owner * base + owner.min(rem);
        first + (col - block_start) / w
    }

    /// The indices below `n` within one of each of `edges`.
    fn around(edges: impl IntoIterator<Item = usize>, n: usize) -> Vec<usize> {
        edges
            .into_iter()
            .flat_map(|e| [e.checked_sub(1), Some(e), e.checked_add(1)])
            .flatten()
            .filter(|&x| x < n)
            .collect()
    }

    #[test]
    fn balanced_ranges_tile_exactly() {
        for &(n, p) in &[(10, 3), (7, 7), (100, 4), (5, 2), (64, 8)] {
            let blocks = Blocks::new(n, p, true);
            let mut covered = 0;
            for i in 0..p {
                let r = blocks.range(i);
                assert_eq!(r.start, covered, "n={n} p={p} i={i}");
                covered = r.end;
            }
            assert_eq!(covered, n);
        }
    }

    #[test]
    fn balanced_owner_matches_ranges() {
        let mut cases: Vec<(usize, usize, Vec<usize>)> =
            [(10, 3), (7, 7), (100, 4), (13, 5)].map(|(n, p)| (n, p, (0..n).collect())).to_vec();
        // At the index limit, with ragged blocks: the items at every block
        // boundary, plus one shape past the limit that divides in hardware.
        for (n, p) in [(LIMIT - 1, 7), (LIMIT, 7), (LIMIT, 1000), (LIMIT + 5, 7)] {
            assert_ne!(n % p, 0, "ragged blocks");
            let starts = (0..=p).map(|i| i * (n / p) + i.min(n % p));
            cases.push((n, p, around(starts, n)));
        }
        for (n, p, items) in cases {
            let blocks = Blocks::new(n, p, fits_small_index(n, n));
            assert_eq!(matches!(blocks.per_big, Divisor::Hardware(_)), n > LIMIT, "n={n}");
            for x in items {
                let (owner, offset) = blocks.locate(x);
                assert_eq!(owner, owner_by_division(n, p, x), "n={n} p={p} x={x}");
                let range = blocks.range(owner);
                assert!(range.contains(&x), "n={n} p={p} x={x}");
                assert_eq!(offset, x - range.start, "n={n} p={p} x={x}");
            }
        }
    }

    #[test]
    fn row_and_col_owners_match_their_ranges() {
        let layout = OneDimLayout::new(13, 17, 4, 3);
        for r in 0..13 {
            assert!(layout.row_range(layout.owner_of_row(r)).contains(&r));
        }
        for c in 0..17 {
            assert!(layout.col_range(layout.owner_of_col(c)).contains(&c));
        }
    }

    #[test]
    fn stripes_tile_each_column_block() {
        let layout = OneDimLayout::new(100, 103, 4, 10);
        // Every column belongs to exactly one stripe owned by its column
        // owner.
        for c in 0..103 {
            let s = layout.stripe_of_col(c);
            assert!(layout.stripe_cols(s).contains(&c), "col {c} in stripe {s}");
            assert_eq!(layout.stripe_owner(s), layout.owner_of_col(c));
        }
    }

    #[test]
    fn stripe_of_col_inverts_stripe_cols_on_every_column() {
        let layouts = [
            (100, 103, 4, 10), // cols % p != 0
            (10, 10, 3, 1),    // W = 1
            (40, 41, 4, 1000), // W wider than a column block
            (8, 3, 5, 2),      // cols < p: empty column blocks
            (4, 0, 2, 3),      // cols = 0
            (7, 29, 3, 4),     // rows != cols
            (29, 7, 6, 2),     // rows != cols, ragged blocks narrower than W
        ];
        for (rows, cols, p, w) in layouts {
            let layout = OneDimLayout::new(rows, cols, p, w);
            let mut covered = 0;
            for s in 0..layout.num_stripes() {
                let stripe = layout.stripe_cols(s);
                assert_eq!(stripe.start, covered, "{rows}x{cols} p={p} W={w}: stripes tile");
                for c in stripe.clone() {
                    assert_eq!(layout.stripe_of_col(c), s, "{rows}x{cols} p={p} W={w} col {c}");
                }
                covered = stripe.end;
            }
            assert_eq!(covered, cols, "{rows}x{cols} p={p} W={w}: every column checked");
        }
        // At the index limit, with ragged blocks and stripes: the columns at
        // every stripe (and so every block) boundary, against the division
        // formula. The last layout is wider than 2^32 and divides in
        // hardware.
        let limit_layouts = [
            (LIMIT - 1, LIMIT - 1, 7, 1_000_003),
            (LIMIT, LIMIT, 7, 999_983),
            (LIMIT, LIMIT - 1, 1000, 65_539),
            (LIMIT + 5, LIMIT + 5, 7, 1_000_003),
        ];
        for (rows, cols, p, w) in limit_layouts {
            let layout = OneDimLayout::new(rows, cols, p, w);
            assert_eq!(matches!(layout.lookup.per_stripe, Divisor::Hardware(_)), cols > LIMIT);
            let starts = (0..layout.num_stripes()).map(|s| layout.stripe_cols(s).start);
            for c in around(starts.chain([cols]), cols) {
                let s = layout.stripe_of_col(c);
                assert_eq!(s, stripe_by_division(&layout, c), "{rows}x{cols} p={p} W={w} col {c}");
                assert!(layout.stripe_cols(s).contains(&c), "{rows}x{cols} p={p} W={w} col {c}");
                assert_eq!(layout.owner_of_col(c), owner_by_division(cols, p, c));
                assert_eq!(layout.stripe_owner(s), layout.owner_of_col(c));
            }
            for r in around((0..p).map(|i| layout.row_range(i).start).chain([rows]), rows) {
                assert_eq!(layout.owner_of_row(r), owner_by_division(rows, p, r), "row {r}");
            }
        }
    }

    #[test]
    fn layout_keeps_its_inline_size() {
        // The plan cache's gated byte count includes the layout inline.
        assert_eq!(std::mem::size_of::<OneDimLayout>(), 7 * std::mem::size_of::<usize>());
    }

    #[test]
    fn ragged_last_stripe_is_narrower() {
        let layout = OneDimLayout::new(100, 100, 4, 10);
        // Each 25-column block has stripes of 10, 10, 5.
        assert_eq!(layout.stripe_cols(2), 20..25);
        assert_eq!(layout.stripe_cols(3), 25..35);
    }

    #[test]
    fn stripes_of_owner_is_contiguous_and_complete() {
        let layout = OneDimLayout::new(64, 64, 4, 8);
        let mut total = 0;
        for rank in 0..4 {
            let r = layout.stripes_of_owner(rank);
            for s in r.clone() {
                assert_eq!(layout.stripe_owner(s), rank);
            }
            total += r.len();
        }
        assert_eq!(total, layout.num_stripes());
    }

    #[test]
    fn single_node_layout() {
        let layout = OneDimLayout::new(16, 16, 1, 4);
        assert_eq!(layout.row_range(0), 0..16);
        assert_eq!(layout.num_stripes(), 4);
        assert_eq!(layout.stripe_owner(3), 0);
    }

    #[test]
    fn stripe_wider_than_block_collapses_to_one_per_block() {
        let layout = OneDimLayout::new(40, 40, 4, 1000);
        assert_eq!(layout.num_stripes(), 4);
        assert_eq!(layout.stripe_cols(1), 10..20);
    }

    #[test]
    #[should_panic(expected = "cannot distribute")]
    fn too_many_nodes_rejected() {
        let _ = OneDimLayout::new(2, 2, 4, 1);
    }
}
