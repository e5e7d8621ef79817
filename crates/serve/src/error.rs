//! Typed errors of the serving layer.

use twoface_core::RunError;

/// Why the service rejected or failed a request.
///
/// Scheduling errors (`UnknownMatrix`, `Shape`, `MixedBatch`) surface
/// before anything runs: from [`submit`](crate::SpmmService::submit), or
/// in every response of a rejected [`execute`](crate::SpmmService::execute).
/// `Config` answers a query that runs nothing under invalid execution
/// options.
/// Execution errors (`Run`) arrive in the request's
/// [`SpmmResponse`](crate::SpmmResponse) after the retry budget — and, when
/// enabled, the dense-allgather fallback — has been exhausted.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServeError {
    /// The request named a matrix handle this service never registered.
    UnknownMatrix {
        /// The offending handle id.
        handle: u64,
    },
    /// Operand shapes are incompatible (e.g. `B` row count vs `A` columns,
    /// or an infeasible layout at registration).
    Shape {
        /// Human-readable description of the mismatch.
        context: String,
    },
    /// The requests handed to one `execute` call do not share one
    /// `(matrix, algorithm, K)`, so they cannot fuse.
    MixedBatch {
        /// Position of the first request whose key differs from the
        /// first request's.
        index: usize,
    },
    /// The service's execution options are invalid
    /// ([`TwoFaceConfig::check`](twoface_core::TwoFaceConfig::check)), found
    /// by a query that runs nothing:
    /// [`predicted_seconds`](crate::SpmmService::predicted_seconds), or a
    /// plan-cache lookup that resolves `Auto`. A batch reports the same
    /// error as a `Run` failure after no attempt.
    Config {
        /// The configuration error.
        source: RunError,
    },
    /// Execution failed after `attempts` runs (retries and any fallback
    /// included).
    Run {
        /// The failed request.
        request: u64,
        /// Total execution attempts made on the request's behalf.
        attempts: u32,
        /// The last underlying run error.
        source: RunError,
    },
}

impl ServeError {
    /// The [`ServeError::Config`] of `source`.
    pub(crate) fn config(source: RunError) -> ServeError {
        ServeError::Config { source }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownMatrix { handle } => {
                write!(f, "matrix handle {handle} is not registered with this service")
            }
            ServeError::Shape { context } => write!(f, "shape mismatch: {context}"),
            ServeError::MixedBatch { index } => write!(
                f,
                "batch cannot fuse: request {index} differs from request 0 in matrix, algorithm or K"
            ),
            ServeError::Config { source } => write!(f, "invalid service configuration: {source}"),
            ServeError::Run { request, attempts, source } => {
                write!(f, "request {request} failed after {attempts} attempt(s): {source}")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Config { source } | ServeError::Run { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    /// Every `ServeError` variant is constructible, Displays usefully, and
    /// `Run` round-trips its cause through `source` — down to the network
    /// error at the bottom of the chain (the `RunError` precedent in the
    /// failure-mode suite).
    #[test]
    fn display_and_source() {
        let e = ServeError::UnknownMatrix { handle: 3 };
        assert!(e.to_string().contains("handle 3"));
        assert!(e.source().is_none());

        let e = ServeError::Shape { context: "B has 3 rows but A has 4 columns".into() };
        let s = e.to_string();
        assert!(s.contains("shape mismatch") && s.contains("3 rows"), "{s}");
        assert!(e.source().is_none());

        let e = ServeError::MixedBatch { index: 2 };
        assert!(e.to_string().contains("request 2") && e.source().is_none());

        let e = ServeError::Config {
            source: RunError::InvalidConfig { context: "row_panel_height must be positive".into() },
        };
        let s = e.to_string();
        assert!(s.contains("invalid service configuration") && s.contains("row_panel"), "{s}");
        assert!(e.source().is_some());

        let e = ServeError::Run {
            request: 7,
            attempts: 4,
            source: RunError::Shape { context: "bad".into() },
        };
        let s = e.to_string();
        assert!(s.contains("request 7") && s.contains("4 attempt"), "{s}");
        assert!(e.source().is_some());

        // A net-backed run failure chains two levels deep:
        // ServeError -> RunError -> NetError.
        let net = twoface_net::NetError::TransferTimeout {
            rank: 2,
            target: 0,
            attempts: 5,
            waited_seconds: 1.5,
        };
        let e = ServeError::Run {
            request: 9,
            attempts: 2,
            source: RunError::TransferTimeout { rank: 2, source: net.clone(), flight: vec![] },
        };
        let run = e.source().expect("Run exposes the RunError");
        let bottom = run.source().expect("the RunError exposes its NetError");
        let found = bottom
            .downcast_ref::<twoface_net::NetError>()
            .expect("the bottom of the chain is the NetError");
        assert_eq!(*found, net);
    }
}
