//! A simulated multi-rank interconnect for the Two-Face reproduction.
//!
//! The paper evaluates on a Cray Slingshot supercomputer over MPI; this crate
//! replaces that substrate with an in-process simulator that preserves the
//! properties the paper's conclusions rest on:
//!
//! * **Real data movement** — ranks run as threads and buffers actually move
//!   between them, so algorithm outputs are numerically checkable;
//! * **Modeled time** — a [`CostModel`] (defaulting to the paper's Table-3
//!   coefficients) advances per-rank virtual clocks, making runs
//!   deterministic and host-independent;
//! * **MPI semantics** — collectives ([`RankCtx::allgather`],
//!   [`RankCtx::multicast`], [`RankCtx::shift_ring`]) synchronize the
//!   participants' clocks ([`RankCtx::multicast_chain`] resolves a whole
//!   list of multicasts known in advance with one rendezvous), while
//!   one-sided operations
//!   ([`RankCtx::win_get`], [`RankCtx::win_rget_rows`]) are passive-target
//!   and advance only the issuer's clock;
//! * **Two lanes per rank** — the [`Lane::Sync`] and [`Lane::Async`] clocks
//!   model Two-Face's overlapped synchronous/asynchronous thread groups; a
//!   rank finishes at the later of the two;
//! * **Deterministic fault injection** — a seeded [`FaultPlan`] degrades the
//!   perfect network reproducibly (transient one-sided failures with
//!   retry/backoff, latency spikes, meet jitter, stalled ranks), surfacing
//!   typed [`NetError`]s instead of hangs or silent corruption;
//! * **Per-operation observability** — with an [`Observability`] level
//!   installed ([`Cluster::set_observability`]), every communication
//!   operation, fault injection, and kernel span is recorded as an
//!   [`OpEvent`] (exportable to Perfetto via [`export`]) and distilled into
//!   a [`MetricsRegistry`] of counters and log₂ histograms; recording off
//!   (the default) costs one branch per operation.
//!
//! # Example
//!
//! ```
//! use twoface_net::{Cluster, CostModel, Lane, NetError, PhaseClass};
//! use std::sync::Arc;
//!
//! let cluster = Cluster::new(2, CostModel::delta());
//! let outputs = cluster.run(|ctx| {
//!     // Expose 4 rows of width 2 for one-sided access...
//!     let win = ctx.create_window(vec![ctx.rank() as f64; 8])?;
//!     // ...and fetch the peer's rows 1 and 3 with a fine-grained get.
//!     let peer = 1 - ctx.rank();
//!     let rows = ctx.win_rget_rows(win, peer, &[(1, 1), (3, 1)], 2)?;
//!     Ok::<f64, NetError>(rows[0])
//! });
//! assert_eq!(outputs[0].result.as_ref().unwrap(), &1.0);
//! assert_eq!(outputs[1].result.as_ref().unwrap(), &0.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cluster;
mod cost;
mod event;
pub mod export;
mod fault;
mod grid;
mod meet;
mod metrics;
mod profile;
mod time;
mod trace;

pub use cluster::{Cluster, Lane, MulticastStep, RankCtx, RankOutput, WindowId};
pub use cost::{CostModel, SpmmStats};
pub use event::{
    seconds_by_class, FlightEntry, Observability, OpEvent, OpKind, TraceLevel,
    FLIGHT_CAPACITY_DEFAULT,
};
pub use fault::{FaultPlan, NetError, RetryPolicy, SlowRank};
pub use grid::Grid2d;
pub use meet::Payload;
pub use metrics::{labeled_metric, Histogram, MetricsRegistry};
pub use profile::{ProfileCell, ProfileSummary, PROFILE_FORMAT, PROFILE_VERSION};
pub use time::SimTime;
pub use trace::{FaultEvent, FaultKind, PhaseClass, RankTrace};
