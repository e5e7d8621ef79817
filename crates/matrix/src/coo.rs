use crate::{Entry, MatrixError, Scalar};

/// A single `(row, column, value)` nonzero entry.
///
/// Triplets are the exchange currency between formats and generators. The
/// ordering implemented for `Triplet` is row-major (row, then column), which
/// is the canonical order maintained by [`CooMatrix`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Triplet {
    /// Row index of the nonzero (`r_id` in the paper's notation).
    pub row: usize,
    /// Column index of the nonzero (`c_id` in the paper's notation).
    pub col: usize,
    /// Numeric value of the nonzero.
    pub val: Scalar,
}

impl Triplet {
    /// Creates a triplet.
    pub fn new(row: usize, col: usize, val: Scalar) -> Self {
        Triplet { row, col, val }
    }
}

impl From<(usize, usize, Scalar)> for Triplet {
    fn from((row, col, val): (usize, usize, Scalar)) -> Self {
        Triplet { row, col, val }
    }
}

/// A sparse matrix in coordinate (COO) format.
///
/// Entries are kept sorted in row-major order (by row, then column) with no
/// duplicate coordinates; duplicates supplied at construction are summed, as
/// is conventional for assembly from triplets. This is the format generators
/// produce and the format the Two-Face preprocessing step consumes (the paper
/// stores `A` in "a modified COO format", §5.1).
///
/// # Example
///
/// ```
/// use twoface_matrix::CooMatrix;
///
/// # fn main() -> Result<(), twoface_matrix::MatrixError> {
/// let m = CooMatrix::from_triplets(3, 3, vec![(0, 1, 1.0), (2, 0, 2.0), (0, 1, 0.5)])?;
/// assert_eq!(m.nnz(), 2); // duplicates summed
/// assert_eq!(m.triplets()[0].val, 1.5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CooMatrix {
    rows: usize,
    cols: usize,
    entries: Vec<Triplet>,
}

impl CooMatrix {
    /// Creates an empty matrix with the given dimensions.
    pub fn new(rows: usize, cols: usize) -> Self {
        CooMatrix { rows, cols, entries: Vec::new() }
    }

    /// Builds a matrix from triplets, summing duplicates and sorting
    /// row-major.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::CoordinateOutOfBounds`] if any triplet lies
    /// outside `rows x cols`.
    pub fn from_triplets<I, T>(rows: usize, cols: usize, triplets: I) -> Result<Self, MatrixError>
    where
        I: IntoIterator<Item = T>,
        T: Into<Triplet>,
    {
        let entries: Vec<Triplet> = triplets.into_iter().map(Into::into).collect();
        CooMatrix::from_triplet_vec(rows, cols, entries)
    }

    /// [`CooMatrix::from_triplets`] without the intermediate copy: validates,
    /// then sorts and sums duplicates in the supplied vector.
    ///
    /// This is the assembly path the chunked generators and the streaming
    /// executor share: the caller's allocation, plus the transient of
    /// [`normalize_triplets`] (at most 20 bytes per entry), and its exact
    /// summation order.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::CoordinateOutOfBounds`] for the first (in input
    /// order) triplet outside `rows x cols`.
    pub fn from_triplet_vec(
        rows: usize,
        cols: usize,
        mut entries: Vec<Triplet>,
    ) -> Result<Self, MatrixError> {
        for t in &entries {
            if t.row >= rows || t.col >= cols {
                return Err(MatrixError::CoordinateOutOfBounds {
                    row: t.row,
                    col: t.col,
                    rows,
                    cols,
                });
            }
        }
        normalize_triplets(&mut entries);
        Ok(CooMatrix { rows, cols, entries })
    }

    /// Builds a matrix from triplets that are already sorted row-major and
    /// duplicate-free, skipping the sort.
    ///
    /// # Errors
    ///
    /// Returns an error if the invariant does not hold or a coordinate is out
    /// of bounds; this constructor validates rather than trusting the caller.
    pub fn from_sorted_triplets(
        rows: usize,
        cols: usize,
        entries: Vec<Triplet>,
    ) -> Result<Self, MatrixError> {
        for (i, t) in entries.iter().enumerate() {
            if t.row >= rows || t.col >= cols {
                return Err(MatrixError::CoordinateOutOfBounds {
                    row: t.row,
                    col: t.col,
                    rows,
                    cols,
                });
            }
            if i > 0 {
                let p = &entries[i - 1];
                if (p.row, p.col) >= (t.row, t.col) {
                    return Err(MatrixError::Parse {
                        line: 0,
                        message: format!(
                            "triplets not strictly sorted at index {i}: ({}, {}) then ({}, {})",
                            p.row, p.col, t.row, t.col
                        ),
                    });
                }
            }
        }
        Ok(CooMatrix { rows, cols, entries })
    }

    /// Number of rows (`N` in the paper).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (`M` in the paper).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Whether the matrix stores no nonzeros.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The sorted triplet slice.
    pub fn triplets(&self) -> &[Triplet] {
        &self.entries
    }

    /// Stable 64-bit content fingerprint: dimensions, nonzero count, and
    /// every `(row, col, bit-exact value)` triplet in canonical (sorted)
    /// order. Two `CooMatrix` values fingerprint equal iff they are the same
    /// matrix with the same stored-entry set, making the digest a safe cache
    /// key for preprocessing artifacts derived from this matrix.
    pub fn fingerprint(&self) -> u64 {
        let mut f = crate::Fingerprint::new();
        f.mix_bytes(b"coo").mix_usize(self.rows).mix_usize(self.cols).mix_usize(self.nnz());
        for t in &self.entries {
            f.mix_usize(t.row).mix_usize(t.col).mix_f64(t.val);
        }
        f.finish()
    }

    /// Consumes the matrix, returning its triplets.
    pub fn into_triplets(self) -> Vec<Triplet> {
        self.entries
    }

    /// Iterates over `(row, col, val)` tuples in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, Scalar)> + '_ {
        self.entries.iter().map(|t| (t.row, t.col, t.val))
    }

    /// Density of the matrix: `nnz / (rows * cols)`.
    ///
    /// Returns 0 for degenerate zero-dimension matrices.
    pub fn density(&self) -> f64 {
        let cells = self.rows as f64 * self.cols as f64;
        if cells == 0.0 {
            0.0
        } else {
            self.nnz() as f64 / cells
        }
    }

    /// Extracts the submatrix of entries whose rows fall in
    /// `row_range` (half-open), re-indexed to start at row 0.
    ///
    /// This is how per-node local partitions are cut from a global matrix
    /// under 1D partitioning (§2.2).
    pub fn row_slice(&self, row_range: std::ops::Range<usize>) -> CooMatrix {
        let entries: Vec<Triplet> = self
            .entries
            .iter()
            .filter(|t| row_range.contains(&t.row))
            .map(|t| Triplet::new(t.row - row_range.start, t.col, t.val))
            .collect();
        CooMatrix { rows: row_range.len(), cols: self.cols, entries }
    }

    /// Returns the transpose as a new COO matrix.
    pub fn transpose(&self) -> CooMatrix {
        let mut entries: Vec<Triplet> =
            self.entries.iter().map(|t| Triplet::new(t.col, t.row, t.val)).collect();
        entries.sort_by_key(|t| (t.row, t.col));
        CooMatrix { rows: self.cols, cols: self.rows, entries }
    }

    /// Returns a structurally-symmetrized copy: for every `(i, j)` nonzero a
    /// `(j, i)` nonzero with the same value is added (duplicates summed).
    ///
    /// Graph matrices (twitter, friendster analogs) are often symmetrized
    /// before GNN use; this mirrors that preprocessing.
    pub fn symmetrize(&self) -> Result<CooMatrix, MatrixError> {
        let n = self.rows.max(self.cols);
        let mut triplets = Vec::with_capacity(self.entries.len() * 2);
        for t in &self.entries {
            triplets.push(*t);
            if t.row != t.col {
                triplets.push(Triplet::new(t.col, t.row, t.val));
            }
        }
        CooMatrix::from_triplets(n, n, triplets)
    }

    /// Counts nonzeros per row.
    pub fn row_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.rows];
        for t in &self.entries {
            counts[t.row] += 1;
        }
        counts
    }

    /// Counts nonzeros per column.
    pub fn col_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.cols];
        for t in &self.entries {
            counts[t.col] += 1;
        }
        counts
    }
}

/// Canonicalizes a raw entry list in place: the entries end in the order
/// of a stable sort by (row, col), and duplicates are summed in that order.
///
/// This is *the* assembly semantics of [`CooMatrix::from_triplets`], exposed
/// so out-of-core shard assembly can reproduce it exactly: because the order
/// is stable and rows partition disjointly, normalizing each row-range shard
/// of a raw stream independently yields bit-identical entries (values summed
/// in the same left-to-right draw order) to normalizing the whole stream and
/// slicing afterwards. The entry width does not matter: 16-byte
/// [`SmallTriplet`](crate::SmallTriplet)s normalize to the same coordinates
/// and value bits as the wide [`Triplet`]s they narrow.
///
/// The order comes from a counting sort by row followed by a sort of each
/// row by column, in time linear in the entries plus the row span. Nothing
/// is gathered: each entry's value moves to its row's bucket next to an
/// 8-byte key of its column and bucket slot, and each sorted bucket is
/// written back over the input with its duplicates summed. The transient is
/// the key and the 8-byte value per entry plus a 4-byte count per row. Where
/// counting cannot run — the rows span more entries than there are, or a
/// column or the entry count does not fit in 32 bits — a comparison sort
/// produces the same order.
pub fn normalize_triplets<E: Entry>(entries: &mut Vec<E>) {
    let len = match row_span(entries) {
        Some((lo, span)) => normalize_by_counting(entries, lo, span),
        None => {
            entries.sort_by_key(|t| (t.row(), t.col()));
            sum_sorted_duplicates(entries)
        }
    };
    entries.truncate(len);
}

/// The lowest row and the row span of `entries` when counting can sort
/// them: `None` for no entries, when the rows span more than
/// `entries.len()`, or when a column or the entry count does not fit in the
/// key's 32 bits.
fn row_span<E: Entry>(entries: &[E]) -> Option<(usize, usize)> {
    let n = entries.len();
    if n == 0 || n > u32::MAX as usize {
        return None;
    }
    let (mut lo, mut hi) = (usize::MAX, 0);
    for t in entries {
        if t.col() > u32::MAX as usize {
            return None;
        }
        lo = lo.min(t.row());
        hi = hi.max(t.row());
    }
    (hi - lo < n).then_some((lo, hi - lo + 1))
}

/// Counting sort of `entries`, whose rows lie in `lo..lo + span`, into
/// stable (row, col) order with duplicates summed in input order, written
/// over the front of `entries`; returns how many entries remain.
///
/// Values are scattered into their row's bucket in input order, next to one
/// key `col << 32 | slot` each. A bucket's slots ascend in input order, so
/// sorting its keys yields the stable order, and the values it reads stay
/// inside the bucket.
fn normalize_by_counting<E: Entry>(entries: &mut [E], lo: usize, span: usize) -> usize {
    let n = entries.len();
    // `next[r]` is where row `lo + r`'s next entry goes: its bucket's start,
    // from the prefix sum of the row counts, then its end once scattered.
    let mut next = vec![0u32; span + 1];
    for t in entries.iter() {
        next[t.row() - lo + 1] += 1;
    }
    for r in 1..=span {
        next[r] += next[r - 1];
    }
    let mut keys = vec![0u64; n];
    let mut vals: Vec<Scalar> = vec![0.0; n];
    for t in entries.iter() {
        let slot = &mut next[t.row() - lo];
        keys[*slot as usize] = (t.col() as u64) << 32 | u64::from(*slot);
        vals[*slot as usize] = t.val();
        *slot += 1;
    }
    // Every value now sits in `vals`, so the buckets are written back over
    // the front of `entries`.
    let (mut len, mut start) = (0, 0);
    for (r, &end) in next[..span].iter().enumerate() {
        let bucket = &mut keys[start..end as usize];
        bucket.sort_unstable();
        let mut i = 0;
        while i < bucket.len() {
            let col = bucket[i] >> 32;
            let mut sum = vals[bucket[i] as u32 as usize];
            i += 1;
            while i < bucket.len() && bucket[i] >> 32 == col {
                sum += vals[bucket[i] as u32 as usize];
                i += 1;
            }
            entries[len] = E::from_parts(lo + r, col as usize, sum);
            len += 1;
        }
        start = end as usize;
    }
    len
}

/// Sums each run of equal coordinates in (row, col)-sorted `entries` into
/// its first entry, in order, compacting to the front; returns how many
/// entries remain.
fn sum_sorted_duplicates<E: Entry>(entries: &mut [E]) -> usize {
    let mut len = 0usize;
    for i in 0..entries.len() {
        let (last, t) = (entries[len.saturating_sub(1)], entries[i]);
        if len > 0 && (last.row(), last.col()) == (t.row(), t.col()) {
            entries[len - 1] = E::from_parts(t.row(), t.col(), last.val() + t.val());
        } else {
            entries[len] = t;
            len += 1;
        }
    }
    len
}

impl FromIterator<Triplet> for CooMatrix {
    /// Collects triplets into a matrix sized to fit the largest coordinates.
    fn from_iter<I: IntoIterator<Item = Triplet>>(iter: I) -> Self {
        let entries: Vec<Triplet> = iter.into_iter().collect();
        let rows = entries.iter().map(|t| t.row + 1).max().unwrap_or(0);
        let cols = entries.iter().map(|t| t.col + 1).max().unwrap_or(0);
        CooMatrix::from_triplets(rows, cols, entries)
            .expect("coordinates are in bounds by construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_triplets_sorts_and_sums() {
        let m = CooMatrix::from_triplets(
            4,
            4,
            vec![(3, 1, 1.0), (0, 2, 2.0), (3, 1, 4.0), (0, 0, 1.0)],
        )
        .unwrap();
        assert_eq!(m.nnz(), 3);
        let t: Vec<_> = m.iter().collect();
        assert_eq!(t, vec![(0, 0, 1.0), (0, 2, 2.0), (3, 1, 5.0)]);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let err = CooMatrix::from_triplets(2, 2, vec![(2, 0, 1.0)]).unwrap_err();
        assert!(matches!(err, MatrixError::CoordinateOutOfBounds { row: 2, .. }));
    }

    #[test]
    fn from_sorted_rejects_unsorted() {
        let ts = vec![Triplet::new(1, 0, 1.0), Triplet::new(0, 0, 1.0)];
        assert!(CooMatrix::from_sorted_triplets(2, 2, ts).is_err());
    }

    #[test]
    fn from_sorted_rejects_duplicates() {
        let ts = vec![Triplet::new(0, 0, 1.0), Triplet::new(0, 0, 2.0)];
        assert!(CooMatrix::from_sorted_triplets(2, 2, ts).is_err());
    }

    #[test]
    fn row_slice_reindexes() {
        let m = CooMatrix::from_triplets(
            6,
            4,
            vec![(0, 0, 1.0), (2, 1, 2.0), (3, 3, 3.0), (5, 2, 4.0)],
        )
        .unwrap();
        let s = m.row_slice(2..4);
        assert_eq!(s.rows(), 2);
        assert_eq!(s.cols(), 4);
        let t: Vec<_> = s.iter().collect();
        assert_eq!(t, vec![(0, 1, 2.0), (1, 3, 3.0)]);
    }

    #[test]
    fn transpose_round_trip() {
        let m = CooMatrix::from_triplets(3, 5, vec![(0, 4, 1.0), (2, 1, 2.0)]).unwrap();
        let tt = m.transpose().transpose();
        assert_eq!(m, tt);
    }

    #[test]
    fn symmetrize_adds_mirror_entries() {
        let m = CooMatrix::from_triplets(3, 3, vec![(0, 1, 1.0), (2, 2, 5.0)]).unwrap();
        let s = m.symmetrize().unwrap();
        let t: Vec<_> = s.iter().collect();
        assert_eq!(t, vec![(0, 1, 1.0), (1, 0, 1.0), (2, 2, 5.0)]);
    }

    #[test]
    fn density_and_counts() {
        let m = CooMatrix::from_triplets(2, 4, vec![(0, 0, 1.0), (1, 3, 1.0)]).unwrap();
        assert!((m.density() - 0.25).abs() < 1e-12);
        assert_eq!(m.row_counts(), vec![1, 1]);
        assert_eq!(m.col_counts(), vec![1, 0, 0, 1]);
    }

    #[test]
    fn empty_matrix_behaves() {
        let m = CooMatrix::new(0, 0);
        assert!(m.is_empty());
        assert_eq!(m.density(), 0.0);
        assert_eq!(m.nnz(), 0);
    }

    /// The comparison-sort normalization the counting sort replaced: a
    /// stable sort by (row, col), then duplicates summed in order.
    fn sorted_and_summed(mut entries: Vec<Triplet>) -> Vec<Triplet> {
        entries.sort_by_key(|t| (t.row, t.col));
        let mut out: Vec<Triplet> = Vec::with_capacity(entries.len());
        for t in entries {
            match out.last_mut() {
                Some(last) if (last.row, last.col) == (t.row, t.col) => last.val += t.val,
                _ => out.push(t),
            }
        }
        out
    }

    /// Normalizes `entries` and compares every coordinate and value bit
    /// with the comparison sort, checking which path ran.
    fn assert_normalizes_like_the_sort(case: &str, entries: Vec<Triplet>, counted: bool) {
        assert_eq!(row_span(&entries).is_some(), counted, "{case}: path taken");
        let expected = sorted_and_summed(entries.clone());
        let mut got = entries;
        normalize_triplets(&mut got);
        let bits = |ts: &[Triplet]| -> Vec<(usize, usize, u64)> {
            ts.iter().map(|t| (t.row, t.col, t.val.to_bits())).collect()
        };
        assert_eq!(bits(&got), bits(&expected), "{case}");
    }

    fn triplets(ts: &[(usize, usize, f64)]) -> Vec<Triplet> {
        ts.iter().map(|&t| t.into()).collect()
    }

    #[test]
    fn normalization_matches_the_stable_sort_bitwise() {
        assert_normalizes_like_the_sort("empty", Vec::new(), false);
        assert_normalizes_like_the_sort("single entry", triplets(&[(7, 3, 2.5)]), true);
        // In draw order (1e16 + 1) - 1e16 is 0; any other order gives 1.
        let order_dependent = [(2, 5, 1e16), (1, 0, 3.0), (2, 5, 1.0), (2, 1, 1.0), (2, 5, -1e16)];
        assert_normalizes_like_the_sort("order-dependent sum", triplets(&order_dependent), true);
        let reversed: Vec<_> = order_dependent.iter().rev().copied().collect();
        assert_normalizes_like_the_sort("order-dependent sum, reversed", triplets(&reversed), true);
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut draw = |m: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % m) as usize
        };
        let far: Vec<_> = (0..500)
            .map(|i| Triplet::new(1_000_000 + draw(100), draw(64), f64::from(i) * 0.1))
            .collect();
        assert_normalizes_like_the_sort("rows far from 0", far, true);
        let long_row: Vec<_> =
            (0..2000).map(|i| Triplet::new(42, draw(300), f64::from(i) - 0.3)).collect();
        assert_normalizes_like_the_sort("one long row", long_row, true);
        let sparse_rows = triplets(&[(10_000, 1, 1.0), (0, 2, 2.0), (10_000, 1, 3.0)]);
        assert_normalizes_like_the_sort("row span above the length", sparse_rows, false);
        let wide = crate::SMALL_INDEX_LIMIT;
        let wide_cols = triplets(&[(1, wide + 3, 1.0), (0, wide, 2.0), (1, wide + 3, 0.5)]);
        assert_normalizes_like_the_sort("columns at and above 2^32", wide_cols, false);
        let wide_rows = triplets(&[(wide + 1, 4, 1.0), (wide, 9, 2.0), (wide + 1, 4, 0.5)]);
        assert_normalizes_like_the_sort("rows above 2^32 in a narrow span", wide_rows, true);
    }

    #[test]
    fn normalization_matches_the_stable_sort_on_seeded_draws() {
        use crate::gen::{ErdosChunks, RmatChunks, RmatConfig, TripletSource};
        let drain = |source: &mut dyn TripletSource| {
            let mut draws = Vec::new();
            while source.next_chunk(1000, &mut draws) > 0 {}
            draws
        };
        for seed in [1, 7, 23] {
            let config = RmatConfig { scale: 10, edge_factor: 12, ..Default::default() };
            let rmat = drain(&mut RmatChunks::new(&config, seed));
            // Whole draws and a shard of one row block, as the streamed
            // path normalizes them.
            let shard: Vec<_> =
                rmat.iter().copied().filter(|t| (256..512).contains(&t.row)).collect();
            assert_normalizes_like_the_sort(&format!("R-MAT seed {seed}"), rmat, true);
            assert_normalizes_like_the_sort(&format!("R-MAT shard seed {seed}"), shard, true);
            let erdos = drain(&mut ErdosChunks::new(300, 200, 5000, seed));
            assert_normalizes_like_the_sort(&format!("Erdos seed {seed}"), erdos, true);
        }
    }

    #[test]
    fn collect_from_iterator_sizes_to_fit() {
        let m: CooMatrix =
            vec![Triplet::new(1, 2, 1.0), Triplet::new(0, 0, 2.0)].into_iter().collect();
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
    }
}
