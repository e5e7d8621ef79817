use std::fmt;
use twoface_net::{FlightEntry, NetError};

/// Error from setting up or running a distributed SpMM.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RunError {
    /// The algorithm's estimated peak memory on some node exceeds the
    /// simulated node capacity — the failure mode behind the paper's missing
    /// DS8/Allgather data points.
    OutOfMemory {
        /// The rank with the largest footprint.
        rank: usize,
        /// Estimated peak bytes on that rank.
        required: usize,
        /// Simulated per-node capacity in bytes.
        available: usize,
    },
    /// The *host-side* staging footprint of a resident run (operands plus
    /// every rank's preprocessed structures, which all coexist in this
    /// process) exceeds the declared
    /// [`RunOptions::memory_budget`](crate::RunOptions::memory_budget).
    /// Unlike [`RunError::OutOfMemory`] — the simulated per-node capacity of
    /// the modeled machine — this is about the machine the simulation runs
    /// on; the streamed pipeline ([`run_twoface_streamed`](crate::stream))
    /// executes the same problem out of core under the budget.
    HostBudgetExceeded {
        /// Estimated resident staging bytes for the whole run.
        required: usize,
        /// The declared host memory budget in bytes.
        budget: usize,
    },
    /// Dense shifting with replication factor `c > p` is undefined (the
    /// paper never runs DS8 below 8 nodes).
    ReplicationExceedsNodes {
        /// Requested replication factor.
        replication: usize,
        /// Available nodes.
        nodes: usize,
    },
    /// A spill or store file operation of the streamed (out-of-core)
    /// pipeline failed — disk full, permissions, a vanished spill
    /// directory, or a truncated store.
    Io {
        /// Human-readable description of the failed operation.
        context: String,
    },
    /// Operand shapes are inconsistent.
    Shape {
        /// Human-readable description of the mismatch.
        context: String,
    },
    /// The computed output failed validation against the serial reference.
    ValidationFailed {
        /// Largest absolute element difference observed.
        max_abs_diff: f64,
    },
    /// A one-sided transfer exhausted its retry budget under fault
    /// injection. The wrapped [`NetError`] is available via
    /// [`std::error::Error::source`].
    TransferTimeout {
        /// The rank whose transfer gave up.
        rank: usize,
        /// The underlying network error
        /// ([`NetError::TransferTimeout`]).
        source: NetError,
        /// The failing rank's flight-recorder tail (its last operations in
        /// chronological order), captured automatically so the failure is
        /// post-mortem-debuggable without a traced re-run. Deterministic
        /// for a given seed. Empty only when the cluster's flight recorder
        /// is disabled.
        flight: Vec<FlightEntry>,
    },
    /// A one-sided transfer described an invalid range (e.g. a row run
    /// whose element offset overflows `usize`, or one past the target's
    /// exposed buffer) or addressed a window this run does not have — a
    /// corrupt request surfaced as a typed error with row/element units
    /// instead of a panic or a clamped read. The wrapped [`NetError`] is
    /// available via [`std::error::Error::source`].
    InvalidTransfer {
        /// The rank that issued the malformed transfer.
        rank: usize,
        /// The underlying network error ([`NetError::RangeOverflow`] or
        /// [`NetError::OutOfWindow`]).
        source: NetError,
    },
    /// An all-rank collective observed a straggler beyond the installed
    /// fault plan's stall timeout. The wrapped [`NetError`] is available via
    /// [`std::error::Error::source`].
    RankStalled {
        /// The first rank (by id) that reported the stall.
        rank: usize,
        /// The underlying network error ([`NetError::RankStalled`]).
        source: NetError,
        /// The reporting rank's flight-recorder tail (see
        /// [`RunError::TransferTimeout::flight`]).
        flight: Vec<FlightEntry>,
    },
}

impl RunError {
    /// Wraps a [`NetError`] surfaced by rank `rank`, attaching that rank's
    /// flight-recorder tail to the variants where a post-mortem of the last
    /// operations is meaningful (timeouts and stalls).
    pub fn from_net_with_flight(
        rank: usize,
        source: NetError,
        flight: Vec<FlightEntry>,
    ) -> RunError {
        match source {
            NetError::TransferTimeout { .. } => RunError::TransferTimeout { rank, source, flight },
            NetError::RangeOverflow { .. } | NetError::OutOfWindow { .. } => {
                RunError::InvalidTransfer { rank, source }
            }
            NetError::RankStalled { .. } => RunError::RankStalled { rank, source, flight },
        }
    }

    /// The attached flight-recorder tail, for the variants that carry one.
    pub fn flight(&self) -> &[FlightEntry] {
        match self {
            RunError::TransferTimeout { flight, .. } | RunError::RankStalled { flight, .. } => {
                flight
            }
            _ => &[],
        }
    }
}

/// Why one rank's body stopped: a communication fault, or — streamed runs
/// only — a failed read of the rank's store file.
#[derive(Debug)]
pub(crate) enum RankError {
    Net(NetError),
    Io(String),
}

impl From<NetError> for RankError {
    fn from(e: NetError) -> RankError {
        RankError::Net(e)
    }
}

impl RankError {
    /// The typed run error for rank `rank`, with its flight-recorder tail
    /// attached where the variant carries one.
    pub(crate) fn into_run_error(self, rank: usize, flight: Vec<FlightEntry>) -> RunError {
        match self {
            RankError::Net(e) => RunError::from_net_with_flight(rank, e, flight),
            RankError::Io(context) => RunError::Io { context },
        }
    }
}

/// Appends a compact flight-recorder tail to an error message.
fn write_flight_tail(f: &mut fmt::Formatter<'_>, flight: &[FlightEntry]) -> fmt::Result {
    if flight.is_empty() {
        return Ok(());
    }
    const TAIL: usize = 6;
    let skipped = flight.len().saturating_sub(TAIL);
    write!(f, " [flight recorder")?;
    if skipped > 0 {
        write!(f, " (+{skipped} earlier)")?;
    }
    f.write_str(": ")?;
    for (i, entry) in flight[skipped..].iter().enumerate() {
        if i > 0 {
            f.write_str(" | ")?;
        }
        f.write_str(&entry.render())?;
    }
    f.write_str("]")
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::OutOfMemory { rank, required, available } => write!(
                f,
                "rank {rank} needs {:.1} MiB but nodes have {:.1} MiB",
                *required as f64 / (1 << 20) as f64,
                *available as f64 / (1 << 20) as f64,
            ),
            RunError::HostBudgetExceeded { required, budget } => write!(
                f,
                "resident staging needs {:.1} MiB but the host memory budget is {:.1} MiB \
                 (use the streamed pipeline for out-of-core execution)",
                *required as f64 / (1 << 20) as f64,
                *budget as f64 / (1 << 20) as f64,
            ),
            RunError::ReplicationExceedsNodes { replication, nodes } => {
                write!(f, "replication factor {replication} exceeds node count {nodes}")
            }
            RunError::Io { context } => write!(f, "streamed spill I/O failed: {context}"),
            RunError::Shape { context } => write!(f, "shape mismatch: {context}"),
            RunError::ValidationFailed { max_abs_diff } => {
                write!(f, "output differs from serial reference by up to {max_abs_diff:e}")
            }
            RunError::TransferTimeout { rank, source, flight } => {
                write!(f, "rank {rank} gave up a transfer: {source}")?;
                write_flight_tail(f, flight)
            }
            RunError::InvalidTransfer { rank, source } => {
                write!(f, "rank {rank} issued an invalid transfer: {source}")
            }
            RunError::RankStalled { rank, source, flight } => {
                write!(f, "rank {rank} aborted a collective: {source}")?;
                write_flight_tail(f, flight)
            }
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::TransferTimeout { source, .. }
            | RunError::InvalidTransfer { source, .. }
            | RunError::RankStalled { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twoface_net::{Cluster, CostModel, Lane, PhaseClass};

    #[test]
    fn display_messages() {
        let e = RunError::OutOfMemory { rank: 3, required: 512 << 20, available: 320 << 20 };
        assert_eq!(e.to_string(), "rank 3 needs 512.0 MiB but nodes have 320.0 MiB");
        let e = RunError::ReplicationExceedsNodes { replication: 8, nodes: 4 };
        assert!(e.to_string().contains("exceeds node count"));
    }

    #[test]
    fn window_errors_are_invalid_transfers() {
        let source = Cluster::new(1, CostModel::delta())
            .run(|ctx| {
                let window = ctx.create_window(vec![0.0])?;
                ctx.win_get(window, 0, 2..3, Lane::Sync, PhaseClass::SyncComm).map(drop)
            })
            .remove(0)
            .result
            .expect_err("the range ends past the one exposed element");
        assert!(matches!(source, NetError::OutOfWindow { .. }), "{source:?}");
        let err = RunError::from_net_with_flight(0, source.clone(), Vec::new());
        assert_eq!(err, RunError::InvalidTransfer { rank: 0, source });
    }

    #[test]
    fn flight_tail_shows_the_last_six_entries_in_order() {
        let flight = Cluster::new(1, CostModel::delta())
            .run(|ctx| (0..10).try_for_each(|_| ctx.barrier()))
            .remove(0)
            .flight;
        assert_eq!(flight.len(), 10);
        let source = NetError::RankStalled {
            rank: 0,
            straggler: 1,
            stalled_seconds: 2.0,
            timeout_seconds: 1.0,
        };
        let text = RunError::RankStalled { rank: 0, source, flight: flight.clone() }.to_string();
        let tail: Vec<String> = flight[4..].iter().map(FlightEntry::render).collect();
        let want = format!(" [flight recorder (+4 earlier): {}]", tail.join(" | "));
        assert!(text.ends_with(&want), "{text}");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RunError>();
    }
}
