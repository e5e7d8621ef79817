//! The Two-Face distributed SpMM algorithm and its baselines.
//!
//! This crate is the paper's primary contribution: the [`Algorithm::TwoFace`]
//! executor (Algorithms 1–3), the Figure-6 [`format`] structures, the local
//! [`kernels`], the row [`coalesce_rows`] optimization, and all four
//! baselines of Table 4 (Dense Shifting, Allgather, Async Coarse, Async
//! Fine) — driven by [`run_algorithm`] on the simulated cluster from
//! [`twoface_net`].
//!
//! # Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use twoface_core::{run_algorithm, Algorithm, Problem, RunOptions};
//! use twoface_matrix::gen::{webcrawl, WebcrawlConfig};
//! use twoface_net::CostModel;
//!
//! # fn main() -> Result<(), twoface_core::RunError> {
//! // A small host-clustered web graph on 4 simulated nodes, K = 16.
//! let a = Arc::new(webcrawl(
//!     &WebcrawlConfig { n: 512, hosts: 32, per_row: 8, ..Default::default() },
//!     1,
//! ));
//! let problem = Problem::with_generated_b(a, 16, 4, 32)?;
//! let cost = CostModel::delta();
//! let options = RunOptions { validate: true, ..Default::default() };
//!
//! let two_face = run_algorithm(Algorithm::TwoFace, &problem, &cost, &options)?;
//! let baseline = run_algorithm(
//!     Algorithm::DenseShifting { replication: 2 },
//!     &problem,
//!     &cost,
//!     &options,
//! )?;
//! println!(
//!     "Two-Face {:.4}s vs DS2 {:.4}s",
//!     two_face.seconds, baseline.seconds
//! );
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
// The only `unsafe` is the kernels' vector-ISA dispatch, allowed there.
#![deny(unsafe_code)]
#![warn(clippy::undocumented_unsafe_blocks)]

mod algo;
mod coalesce;
mod config;
mod error;
mod format;
pub mod gnn;
pub mod kernels;
pub mod pool;
mod prepared;
mod reference;
mod runner;
pub mod sampling;
pub mod sddmm;
pub mod stream;

pub use algo::auto::{
    auto_candidates, predict, predict_latency, resolve_auto, spmm_stats, AutoChoice,
};
pub use algo::Algorithm;
pub use coalesce::{coalesce_rows, runs_to_rows, RowRun};
pub use config::{AsyncLayout, TwoFaceConfig};
pub use error::RunError;
pub use format::{AsyncMatrix, AsyncStripe, RankMatrices, SyncLocalMatrix};
pub use prepared::PreparedMatrix;
pub use reference::{reference_spmm, reference_spmm_pooled};
pub use runner::{
    generated_b_block, prepare_plan, prepare_plan_with_classifier, run_algorithm, run_algorithm_on,
    run_spmv, Breakdown, ExecutionReport, Problem, RunOptions, PROFILE_ENV, TRACE_ENV,
};
pub use stream::{peak_rss_bytes, run_twoface_streamed, StreamOptions, StreamedRun};
