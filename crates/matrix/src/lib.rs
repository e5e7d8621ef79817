//! Sparse and dense matrix support for the Two-Face distributed SpMM
//! reproduction.
//!
//! This crate provides the matrix substrate that the rest of the workspace
//! builds on:
//!
//! * [`CooMatrix`] — the row-major sorted sparse `A`, and the compact
//!   [`SmallTriplet`] entries the per-rank structures store,
//! * [`DenseMatrix`] — the row-major dense operand type used for the `B` and
//!   `C` matrices of `C = A × B`,
//! * [`gen`] — synthetic sparse matrix generators that stand in for the eight
//!   large SuiteSparse matrices of the paper's evaluation (Table 1),
//! * [`io`] — Matrix Market text I/O and the bespoke binary format used to
//!   measure preprocessing I/O cost (Table 6),
//! * [`stats`] — structural statistics (row/column histograms, density maps)
//!   used by the preprocessing model and the explorer example.
//!
//! # Example
//!
//! ```
//! use twoface_matrix::{CooMatrix, DenseMatrix};
//!
//! # fn main() -> Result<(), twoface_matrix::MatrixError> {
//! // A tiny 2x2 sparse matrix multiplied by a dense 2x3 matrix; the
//! // triplets come back row-major whatever order they were given in.
//! let a = CooMatrix::from_triplets(2, 2, vec![(1, 1, 3.0), (0, 0, 2.0)])?;
//! assert_eq!(a.iter().collect::<Vec<_>>(), vec![(0, 0, 2.0), (1, 1, 3.0)]);
//! let b = DenseMatrix::from_rows(vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]])?;
//! let mut c = DenseMatrix::zeros(a.rows(), b.cols());
//! for (row, col, val) in a.iter() {
//!     for (out, x) in c.row_mut(row).iter_mut().zip(b.row(col)) {
//!         *out += val * x;
//!     }
//! }
//! assert_eq!(c.row(0), &[2.0, 4.0, 6.0]);
//! assert_eq!(c.row(1), &[12.0, 15.0, 18.0]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod coo;
mod dense;
mod entry;
mod error;
mod fingerprint;
pub mod gen;
pub mod io;
pub mod stats;

pub use coo::{normalize_triplets, CooMatrix, Triplet};
pub use dense::DenseMatrix;
pub use entry::{fits_small_index, Entry, SmallTriplet, SMALL_INDEX_LIMIT};
pub use error::MatrixError;
pub use fingerprint::Fingerprint;

/// The scalar type used throughout the workspace.
///
/// The paper evaluates double-precision SpMM; all kernels, cost models, and
/// transfers in this reproduction assume `f64` elements (8 bytes each).
pub type Scalar = f64;

/// Number of bytes occupied by one [`Scalar`] element.
pub const SCALAR_BYTES: usize = std::mem::size_of::<Scalar>();
