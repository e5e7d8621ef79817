//! Two-Face preprocessing: 1D partitioning, stripe profiling, the execution
//! model that classifies stripes, and coefficient calibration.
//!
//! This crate implements §4 of the paper ("Overview of Two-Face"):
//!
//! 1. [`OneDimLayout`] carves an `N × M` matrix into per-node row blocks,
//!    megatiles, and sparse/dense stripes (§2.2, §4.1);
//! 2. [`NodeProfile`] measures each stripe's nonzero count `n_i` and
//!    required dense rows `l_i`;
//! 3. [`classify_node`] applies the §4.2 cost model — score
//!    `z_i = K(β_A l_i + γ_A n_i) + u`, sort ascending, take the cheapest
//!    prefix as asynchronous — with [`enforce_memory_cap`] as the §6.3
//!    fallback;
//! 4. [`PartitionPlan`] packages the classifications plus the replicated
//!    multicast metadata the runtime needs;
//! 5. [`ordinary_least_squares`] fits the six [`ModelCoefficients`] from
//!    profiled runs, as the paper does at installation time (§6.2).
//!
//! # Example
//!
//! ```
//! use twoface_matrix::gen::{banded, BandedConfig};
//! use twoface_partition::{ModelCoefficients, OneDimLayout, PartitionPlan, PlanOptions};
//!
//! let a = banded(&BandedConfig { n: 128, bandwidth: 8, per_row: 4, escape_fraction: 0.1 }, 1);
//! let layout = OneDimLayout::new(128, 128, 4, 8);
//! let plan = PartitionPlan::build(
//!     &a,
//!     layout,
//!     &ModelCoefficients::table3(),
//!     32,
//!     PlanOptions::default(),
//! );
//! let (local, sync, async_) = plan.class_totals();
//! assert!(local + sync + async_ > 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod layout;
mod model;
mod plan;
mod regress;
mod stripe;

pub use layout::OneDimLayout;
pub use model::{
    classify_node, classify_node_fanout_aware, enforce_memory_cap, ModelCoefficients,
    NodeClassification, StripeClass,
};
pub use plan::{ClassifierKind, PartitionPlan, PlanOptions};
pub use regress::{ordinary_least_squares, r_squared, RegressionError};
pub use stripe::{profile_all_nodes, NodeProfile, StripeProfile};
