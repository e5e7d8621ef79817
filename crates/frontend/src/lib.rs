//! Multi-tenant asynchronous serving front-end for the Two-Face stack.
//!
//! [`SpmmService`](twoface_serve::SpmmService) amortizes preprocessing
//! across calls, but it is single-caller and synchronous. Real SpMM
//! consumers are concurrent — GNN training and inference jobs with
//! different latency objectives sharing one cluster — so this crate puts a
//! serving front-end above the service:
//!
//! * **Submission queue.** Producers submit from caller threads through
//!   per-tenant handles; a scheduler (a dedicated thread in
//!   [`AsyncFrontend`], the caller itself in the deterministic
//!   [`Frontend`]) closes batches and hands each one to
//!   [`SpmmService::execute`](twoface_serve::SpmmService::execute), which
//!   runs it as formed.
//! * **Tenant quotas and fairness.** Every tenant carries a queued-request
//!   cap and an in-flight column (`K`) budget; batch slots are handed out
//!   by deficit round robin, so a chatty tenant cannot starve a quiet one.
//! * **Deadline-aware batch formation.** A group of compatible requests
//!   closes when it can fill the service's `max_k_per_batch` budget *or*
//!   when its earliest deadline minus the calibrated cost model's
//!   predicted execution time runs out of headroom
//!   ([`predict_latency`](twoface_core::predict_latency) via
//!   [`SpmmService::predicted_seconds`](twoface_serve::SpmmService::predicted_seconds))
//!   — urgent work stops waiting for stragglers.
//! * **Admission control.** Instead of queueing unboundedly, submissions
//!   beyond the backpressure ladder come back as a typed
//!   [`FrontendError::Rejected`] naming the rung ([`RejectReason`]):
//!   global queue depth, tenant queue cap, tenant K budget, plan-cache
//!   pressure, draining.
//! * **Observability.** Per-tenant accounting lands in the existing
//!   [`MetricsRegistry`](twoface_net::MetricsRegistry) as labeled series,
//!   latency/queue-depth sketches mirror the service's
//!   [`SessionDigest`](twoface_serve::SessionDigest), and every action
//!   joins a [`PhaseClass`](twoface_net::PhaseClass)-tagged timeline
//!   exportable merged or per tenant.
//!
//! The correctness contract is unchanged from the serving layer: every
//! response, however batched, reordered, or formed under deadline
//! pressure, is bitwise equal to a solo run of the same request.
//!
//! # Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use twoface_frontend::{Frontend, FrontendConfig, FrontendRequest, TenantQuota};
//! use twoface_matrix::gen::erdos_renyi;
//! use twoface_net::CostModel;
//! use twoface_serve::{ServeConfig, SpmmService};
//!
//! # fn main() -> Result<(), twoface_frontend::FrontendError> {
//! let mut service = SpmmService::new(ServeConfig::new(4, CostModel::delta_scaled()));
//! let a = service
//!     .register_matrix(Arc::new(erdos_renyi(256, 256, 4_000, 7)), 32)
//!     .expect("layout fits");
//!
//! let mut frontend = Frontend::new(service, FrontendConfig::default());
//! let train = frontend.register_tenant("train", TenantQuota::default())?;
//! let serve = frontend.register_tenant("serve", TenantQuota::default())?;
//!
//! let b = Arc::new(twoface_matrix::DenseMatrix::from_fn(256, 8, |i, j| (i + j) as f64));
//! frontend.submit(train, FrontendRequest::new(a, Arc::clone(&b)))?;
//! frontend.submit(serve, FrontendRequest::new(a, b).with_slo(0.001))?;
//!
//! let responses = frontend.drain();
//! assert_eq!(responses.len(), 2);
//! assert!(responses.iter().all(|r| r.output.is_ok()));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod core;
mod error;
mod frontend;
mod tenant;
mod timeline;

pub use crate::core::{CloseReason, FrontendConfig, FrontendRequest, FrontendResponse, JobId};
pub use crate::error::{FrontendError, RejectReason};
pub use crate::frontend::{AsyncFrontend, Frontend, TenantHandle, Ticket};
pub use crate::tenant::{TenantDigest, TenantId, TenantQuota};
pub use crate::timeline::{frontend_timeline_jsonl, tenant_events, FrontendEvent, FrontendPhase};
