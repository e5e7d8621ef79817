//! Persistent SpMM serving on the Two-Face stack.
//!
//! One-shot execution ([`run_algorithm`](twoface_core::run_algorithm))
//! rebuilds the world per call: a fresh cluster, fresh RMA windows, and —
//! for the plan-using algorithms — a full preprocessing pass over `A`. The
//! paper's amortization argument (§6: preprocessing is done once per matrix
//! and reused across the many SpMM invocations of an application) calls for
//! a service instead. This crate provides it:
//!
//! * [`SpmmService`] owns a persistent [`Cluster`](twoface_net::Cluster) in
//!   window-retention mode. Every run still creates its RMA windows
//!   collectively; retention only keeps them, and the `B` payloads they pin,
//!   until the drain or execute that ran them ends.
//! * [`PlanCache`] holds preprocessing artifacts
//!   ([`PreparedMatrix`](twoface_core::PreparedMatrix)) keyed by a stable
//!   content fingerprint of `(A, execution options, cluster shape)` under a
//!   configurable byte budget with LRU eviction.
//! * [`SpmmService::execute`] runs one batch exactly as its caller formed
//!   it; [`SpmmService::drain`] first groups the queue into batches of
//!   compatible requests. Either way the batch runs fused (results split
//!   back bit-identically), transient faults retry under reseeded fault
//!   plans, and the dense allgather baseline takes over when one-sided
//!   transfers keep timing out.
//! * A [`SessionEvent`] timeline tags everything the service does with the
//!   existing [`PhaseClass`](twoface_net::PhaseClass) vocabulary.
//!
//! # Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use twoface_matrix::gen::erdos_renyi;
//! use twoface_net::CostModel;
//! use twoface_serve::{ServeConfig, SpmmRequest, SpmmService};
//!
//! # fn main() -> Result<(), twoface_serve::ServeError> {
//! let mut service = SpmmService::new(ServeConfig::new(4, CostModel::delta_scaled()));
//! let a = service.register_matrix(Arc::new(erdos_renyi(256, 256, 4_000, 7)), 32)?;
//!
//! // First call: plan-cache miss, preprocessing runs.
//! let b = Arc::new(twoface_matrix::DenseMatrix::from_fn(256, 16, |i, j| (i + j) as f64));
//! let first = service.run_one(SpmmRequest::new(a, Arc::clone(&b)))?;
//! assert_eq!(first.cache_hit, Some(false));
//!
//! // Second call with the same matrix: hit, preprocessing skipped.
//! let second = service.run_one(SpmmRequest::new(a, b))?;
//! assert_eq!(second.cache_hit, Some(true));
//! assert_eq!(second.prep_wall_nanos, 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cache;
mod error;
mod former;
mod service;
mod timeline;

pub use cache::{CacheStats, PlanCache};
pub use error::ServeError;
pub use former::requests_per_batch;
pub use service::{
    check_operand, MatrixHandle, RequestId, ServeConfig, SessionDigest, SpmmRequest, SpmmResponse,
    SpmmService,
};
pub use timeline::{timeline_jsonl, SessionEvent, SessionPhase};
