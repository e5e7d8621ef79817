//! Typed admission and infrastructure errors of the front-end.

use std::error::Error;
use std::fmt;
use twoface_serve::ServeError;

/// Why admission control refused a submission — the backpressure ladder,
/// in the order the checks run (see the crate docs).
///
/// Every reason is a *load* signal: the request itself was well-formed, and
/// resubmitting after the queue drains (or the quota frees) can succeed.
/// Malformed requests surface as [`FrontendError::Invalid`] or
/// [`FrontendError::InvalidSlo`] instead.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum RejectReason {
    /// The global pending queue is at its depth limit.
    QueueDepth {
        /// Requests pending across all tenants.
        depth: usize,
        /// The configured global cap.
        limit: usize,
    },
    /// The tenant's own queued-request cap is exhausted.
    TenantQueue {
        /// Requests this tenant has queued.
        queued: usize,
        /// The tenant's queued-request quota.
        limit: usize,
    },
    /// Admitting the request would exceed the tenant's in-flight `K`
    /// budget (dense columns admitted but not yet completed).
    TenantKBudget {
        /// Columns currently in flight for the tenant.
        in_flight_k: usize,
        /// Columns the rejected request asked for.
        requested_k: usize,
        /// The tenant's in-flight column quota.
        limit: usize,
    },
    /// The plan cache is above its pressure watermark and the request
    /// would build a *new* preprocessing artifact (a plan-using
    /// `(matrix, algorithm, K)` this session has not served yet).
    PlanCachePressure {
        /// Bytes resident in the plan cache.
        cache_bytes: usize,
        /// The cache's byte budget.
        budget_bytes: usize,
    },
    /// The front-end is draining: shutdown has begun and no new work is
    /// admitted.
    Draining,
}

impl RejectReason {
    /// Stable machine-readable tag (used in metrics names and timeline
    /// details): `queue_depth`, `tenant_queue`, `tenant_k_budget`,
    /// `plan_cache_pressure`, or `draining`.
    pub fn label(&self) -> &'static str {
        match self {
            RejectReason::QueueDepth { .. } => "queue_depth",
            RejectReason::TenantQueue { .. } => "tenant_queue",
            RejectReason::TenantKBudget { .. } => "tenant_k_budget",
            RejectReason::PlanCachePressure { .. } => "plan_cache_pressure",
            RejectReason::Draining => "draining",
        }
    }
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::QueueDepth { depth, limit } => {
                write!(f, "global queue depth {depth} is at its limit of {limit}")
            }
            RejectReason::TenantQueue { queued, limit } => {
                write!(f, "tenant has {queued} requests queued, at its limit of {limit}")
            }
            RejectReason::TenantKBudget { in_flight_k, requested_k, limit } => write!(
                f,
                "tenant has {in_flight_k} columns in flight; {requested_k} more would exceed \
                 its budget of {limit}"
            ),
            RejectReason::PlanCachePressure { cache_bytes, budget_bytes } => write!(
                f,
                "plan cache holds {cache_bytes} of {budget_bytes} budgeted bytes and the \
                 request needs a new artifact"
            ),
            RejectReason::Draining => write!(f, "the front-end is draining"),
        }
    }
}

/// Errors of the multi-tenant front-end.
///
/// Execution failures of *admitted* requests are not here: they come back
/// inside [`FrontendResponse::output`](crate::FrontendResponse::output) as
/// the underlying [`ServeError`], exactly as a solo service call would
/// report them.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum FrontendError {
    /// Admission control refused the submission (backpressure).
    Rejected {
        /// The submitting tenant.
        tenant: String,
        /// Which rung of the backpressure ladder fired.
        reason: RejectReason,
    },
    /// No tenant with this name is registered.
    UnknownTenant {
        /// The name looked up.
        name: String,
    },
    /// A tenant with this name is already registered.
    TenantExists {
        /// The duplicate name.
        name: String,
    },
    /// The request was malformed: unknown matrix handle or operand shape
    /// mismatch, diagnosed at admission by the serving layer's own check,
    /// [`check_operand`](twoface_serve::check_operand).
    Invalid {
        /// The underlying validation failure.
        source: ServeError,
    },
    /// The request's SLO is not a finite, non-negative number of simulated
    /// seconds (NaN, negative, or infinite), so it names no deadline.
    InvalidSlo {
        /// The SLO the request carried.
        slo_sim_seconds: f64,
    },
    /// The scheduler is gone (its thread terminated abnormally), so the
    /// submission or ticket can never complete.
    Disconnected,
}

impl fmt::Display for FrontendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrontendError::Rejected { tenant, reason } => {
                write!(f, "request from tenant '{tenant}' rejected: {reason}")
            }
            FrontendError::UnknownTenant { name } => write!(f, "unknown tenant '{name}'"),
            FrontendError::TenantExists { name } => {
                write!(f, "tenant '{name}' is already registered")
            }
            FrontendError::Invalid { source } => write!(f, "invalid request: {source}"),
            FrontendError::InvalidSlo { slo_sim_seconds } => write!(
                f,
                "invalid request: SLO {slo_sim_seconds} is not a finite, non-negative number of \
                 simulated seconds"
            ),
            FrontendError::Disconnected => {
                write!(f, "the front-end scheduler terminated abnormally")
            }
        }
    }
}

impl Error for FrontendError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FrontendError::Invalid { source } => Some(source),
            _ => None,
        }
    }
}
