//! Reusable preprocessing artifacts, split from execution.
//!
//! Two-Face's preprocessing (stripe classification into a
//! [`PartitionPlan`], plus each rank's Figure-6 [`RankMatrices`]) is
//! justified by amortization: the same sparse `A` is multiplied against many
//! dense `B`s (Table 6 prices preprocessing at a handful of SpMM
//! invocations). One-shot [`run_algorithm`](crate::run_algorithm) calls
//! classify on every run, and each of their ranks reads its nonzeros
//! straight from `A` instead of building structures it would drop at the
//! end of the call; a [`PreparedMatrix`] captures exactly the
//! `B`-independent part once so repeated runs, masked epochs
//! ([`run_sampled_twoface`](crate::sampling::run_sampled_twoface)) and the
//! `twoface-serve` plan cache can skip it. It is the one holder of rank
//! structures: SDDMM builds one too.
//!
//! What is and is not `B`-independent:
//!
//! * the plan and the per-rank matrices depend on `(A, layout, K, model
//!   coefficients, panel height)` only — cacheable;
//! * the per-rank `B` blocks depend on the dense operand — rebuilt per run
//!   (they are a cheap copy, not a classification pass).
//!
//! Note the plan *does* depend on `K` (the §4.2 classifier prices transfers
//! per dense row of width `K`), so a `PreparedMatrix` is keyed by the `K` it
//! was built for. Running it at a different `K` — as batched request fusion
//! deliberately does — is *correct* for any `K` (the plan is a communication
//! strategy, not part of the arithmetic), merely tuned for the build-time
//! `K`.

use crate::config::TwoFaceConfig;
use crate::error::RunError;
use crate::format::RankMatrices;
use crate::pool::{resolve_workers, Pool};
use crate::runner::{check_plan_layout, prepare_plan_with_classifier, Problem, RunOptions};
use std::sync::Arc;
use twoface_matrix::Fingerprint;
use twoface_net::CostModel;
use twoface_partition::{ModelCoefficients, PartitionPlan};

/// The `B`-independent preprocessing output for one `(A, layout, K,
/// configuration)` tuple: the partition plan, every rank's Figure-6
/// structures, and the model coefficients the plan was built with.
///
/// Build once, run many times (pass via
/// [`RunOptions::prepared`](crate::RunOptions)):
///
/// ```
/// use std::sync::Arc;
/// use twoface_core::{run_algorithm, Algorithm, PreparedMatrix, Problem, RunOptions};
/// use twoface_matrix::gen::erdos_renyi;
/// use twoface_net::CostModel;
///
/// # fn main() -> Result<(), twoface_core::RunError> {
/// let a = Arc::new(erdos_renyi(64, 64, 400, 7));
/// let problem = Problem::with_generated_b(a, 8, 4, 8)?;
/// let cost = CostModel::delta();
/// let options = RunOptions::default();
/// let prepared = Arc::new(PreparedMatrix::build(&problem, &cost, &options)?);
/// let options = RunOptions { prepared: Some(prepared), ..options };
/// for _ in 0..3 {
///     // Each run reuses the plan and rank matrices; only B blocks are staged.
///     run_algorithm(Algorithm::TwoFace, &problem, &cost, &options)?;
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PreparedMatrix {
    plan: Arc<PartitionPlan>,
    rank_matrices: Arc<Vec<RankMatrices>>,
    coefficients: ModelCoefficients,
    panel_height: usize,
    fingerprint: u64,
    approx_bytes: usize,
}

impl PreparedMatrix {
    /// Runs the full `B`-independent preprocessing pipeline for `problem`
    /// under `options`: effective cost folding, coefficient derivation (or
    /// `options.coefficients`), §4.2 classification (honoring
    /// `options.plan` if supplied), and per-rank structure building.
    ///
    /// Deterministic across worker counts: rank builds are collected in rank
    /// order, so the artifact — including its
    /// [`PreparedMatrix::fingerprint`] — is identical for any
    /// `options.workers`.
    ///
    /// # Errors
    ///
    /// [`RunError::InvalidConfig`] if `options.config` has a zero field
    /// ([`TwoFaceConfig::check`]); [`RunError::Shape`] if a supplied
    /// `options.plan` was built for a different layout or `K` than
    /// `problem`'s, or for another matrix whose classification misses a
    /// stripe `problem` has nonzeros in.
    pub fn build(
        problem: &Problem,
        cost: &CostModel,
        options: &RunOptions,
    ) -> Result<PreparedMatrix, RunError> {
        options.config.check()?;
        let effective = options.config.effective_cost(cost);
        let coefficients =
            options.coefficients.unwrap_or_else(|| ModelCoefficients::from(&effective));
        let plan = match &options.plan {
            Some(plan) => Arc::clone(plan),
            None => Arc::new(prepare_plan_with_classifier(
                problem,
                &coefficients,
                &effective,
                options.classifier,
            )),
        };
        check_plan_layout(&plan, problem)?;
        if plan.k() != problem.k() {
            return Err(RunError::Shape {
                context: format!(
                    "supplied plan was built for K = {} but the problem is K = {}",
                    plan.k(),
                    problem.k()
                ),
            });
        }
        let pool = Pool::new(resolve_workers(options.workers));
        PreparedMatrix::from_plan(
            problem,
            plan,
            coefficients,
            options.config.row_panel_height,
            &pool,
        )
    }

    /// Builds every rank's structures under `plan`, a plan for `problem`'s
    /// layout, with row panels of `panel_height` rows. Ranks are independent,
    /// so the builds fan out across `pool`, collected in rank order.
    ///
    /// # Errors
    ///
    /// [`RunError::Shape`] from the lowest rank holding a nonzero the plan
    /// never classified for it; [`RunError::InvalidConfig`] if
    /// `panel_height == 0`.
    pub(crate) fn from_plan(
        problem: &Problem,
        plan: Arc<PartitionPlan>,
        coefficients: ModelCoefficients,
        panel_height: usize,
        pool: &Pool,
    ) -> Result<PreparedMatrix, RunError> {
        let rank_matrices = pool
            .map(problem.layout.nodes(), |rank| {
                RankMatrices::build(&problem.a, &plan, rank, panel_height)
            })
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?;
        let rank_matrices = Arc::new(rank_matrices);
        let approx_bytes = plan.approx_bytes()
            + rank_matrices.iter().map(RankMatrices::approx_bytes).sum::<usize>();
        let mut f = Fingerprint::new();
        f.mix_bytes(b"prepared").mix_u64(plan.fingerprint()).mix_usize(panel_height);
        Ok(PreparedMatrix {
            plan,
            rank_matrices,
            coefficients,
            panel_height,
            fingerprint: f.finish(),
            approx_bytes,
        })
    }

    /// The partition plan.
    pub fn plan(&self) -> &Arc<PartitionPlan> {
        &self.plan
    }

    /// Every rank's Figure-6 structures, in rank order.
    pub fn rank_matrices(&self) -> &Arc<Vec<RankMatrices>> {
        &self.rank_matrices
    }

    /// The model coefficients the plan was classified with.
    pub fn coefficients(&self) -> ModelCoefficients {
        self.coefficients
    }

    /// The row-panel height the rank matrices were built for. Runs whose
    /// [`TwoFaceConfig::row_panel_height`] differs cannot reuse them.
    pub fn panel_height(&self) -> usize {
        self.panel_height
    }

    /// Stable content fingerprint of the artifact (plan fingerprint plus
    /// panel height) — identical across worker counts.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Approximate heap footprint in bytes, for cache budgeting.
    pub fn approx_bytes(&self) -> usize {
        self.approx_bytes
    }

    /// Whether this artifact is reusable for a run of `problem` under
    /// `config`: same layout, and the panel height it was built for.
    pub fn compatible_with(&self, problem: &Problem, config: &TwoFaceConfig) -> bool {
        self.plan.layout() == &problem.layout && self.panel_height == config.row_panel_height
    }
}
