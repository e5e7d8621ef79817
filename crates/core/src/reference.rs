//! Reference SpMM — the correctness oracle.

use crate::kernels::{par_row_spans_plain, PAR_MIN_PRODUCTS};
use crate::pool::Pool;
use twoface_matrix::{CooMatrix, DenseMatrix};

/// Computes `C = A × B` straight off the COO triplets.
///
/// This is the ground truth every distributed algorithm's output is compared
/// against in tests (up to floating-point summation-order differences; see
/// [`DenseMatrix::approx_eq`]). Large inputs fan out across
/// [`Pool::from_env`] workers over disjoint row ranges — each output row is
/// produced by exactly one worker in triplet order, so the result is
/// bit-identical to a serial pass for any worker count (asserted by the
/// parallel determinism suite).
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
///
/// # Example
///
/// ```
/// use twoface_core::reference_spmm;
/// use twoface_matrix::{CooMatrix, DenseMatrix};
///
/// # fn main() -> Result<(), twoface_matrix::MatrixError> {
/// let a = CooMatrix::from_triplets(2, 2, vec![(0, 1, 2.0)])?;
/// let b = DenseMatrix::from_rows(vec![vec![1.0], vec![3.0]])?;
/// let c = reference_spmm(&a, &b);
/// assert_eq!(c.row(0), &[6.0]);
/// # Ok(())
/// # }
/// ```
pub fn reference_spmm(a: &CooMatrix, b: &DenseMatrix) -> DenseMatrix {
    reference_spmm_pooled(a, b, &Pool::from_env())
}

/// [`reference_spmm`] with an explicit worker pool.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
pub fn reference_spmm_pooled(a: &CooMatrix, b: &DenseMatrix, pool: &Pool) -> DenseMatrix {
    assert_eq!(
        a.cols(),
        b.rows(),
        "spmm dimension mismatch: A is {}x{}, B has {} rows",
        a.rows(),
        a.cols(),
        b.rows()
    );
    let k = b.cols();
    let mut data = vec![0.0; a.rows() * k];
    let entries = a.triplets(); // row-major sorted by CooMatrix invariant
    if pool.workers() == 1 || entries.len() * k < PAR_MIN_PRODUCTS {
        accumulate(entries, b, &mut data, k, 0);
    } else {
        par_row_spans_plain(pool, entries, &mut data, k, |span, chunk, row_base| {
            accumulate(span, b, chunk, k, row_base);
        });
    }
    DenseMatrix::from_vec(a.rows(), k, data).expect("buffer sized rows x K")
}

/// The serial triplet loop over one row-aligned chunk of `C`.
fn accumulate(
    entries: &[twoface_matrix::Triplet],
    b: &DenseMatrix,
    c_chunk: &mut [f64],
    k: usize,
    row_base: usize,
) {
    for t in entries {
        let brow = b.row(t.col);
        let crow = &mut c_chunk[(t.row - row_base) * k..(t.row - row_base + 1) * k];
        for j in 0..k {
            crow[j] += t.val * brow[j];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_matrix_gives_zero_output() {
        let a = CooMatrix::new(4, 4);
        let b = DenseMatrix::from_elem(4, 3, 1.0);
        let c = reference_spmm(&a, &b);
        assert_eq!(c.frobenius_norm(), 0.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mismatched_dims_panic() {
        let a = CooMatrix::new(4, 5);
        let b = DenseMatrix::zeros(4, 2);
        let _ = reference_spmm(&a, &b);
    }
}
