//! Distributed SDDMM — sampled dense-dense matrix multiplication (§9).
//!
//! The paper's conclusion notes that "the Two-Face algorithm should also be
//! applicable to sparse kernels such as SDDMM, which exhibits very similar
//! patterns to SpMM". This module demonstrates it: for
//! `C_ij = A_ij · (X · Yᵀ)_ij` over the nonzeros of `A`, the `X` rows are
//! local under 1D partitioning (they follow `A`'s row blocks, like `C` in
//! SpMM) while the `Y` rows are indexed by nonzero *columns* — exactly the
//! access pattern of SpMM's `B`. The same partition plan, dense-stripe
//! multicasts, and coalesced one-sided gets therefore apply unchanged; only
//! the local kernel differs (a dot product per nonzero instead of an axpy).

use crate::algo::twoface::{stage_b_blocks, sync_multicasts};
use crate::coalesce::coalesce_rows;
use crate::config::TwoFaceConfig;
use crate::kernels::{FetchedRows, RowCursor, RowSource};
use crate::pool::{resolve_workers, Pool};
use crate::runner::{check_plan_layout, harvest, resolve_observability, Problem};
use crate::{prepare_plan_with_classifier, PreparedMatrix, RunError, RunOptions};
use std::sync::Arc;
use twoface_matrix::{CooMatrix, DenseMatrix, Entry, Scalar, Triplet};
use twoface_net::{Cluster, CostModel, Lane, MetricsRegistry, NetError, PhaseClass};
use twoface_partition::{ModelCoefficients, PartitionPlan, StripeClass};

/// Which communication schedule an SDDMM run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SddmmAlgorithm {
    /// Two-Face: multicasts for synchronous stripes, fine-grained gets for
    /// asynchronous ones.
    TwoFace,
    /// Everything fine-grained.
    AsyncFine,
    /// Full replication of `Y` before computing.
    Allgather,
}

impl std::fmt::Display for SddmmAlgorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SddmmAlgorithm::TwoFace => "Two-Face SDDMM",
            SddmmAlgorithm::AsyncFine => "Async Fine SDDMM",
            SddmmAlgorithm::Allgather => "Allgather SDDMM",
        })
    }
}

/// Result of a distributed SDDMM execution.
#[derive(Debug, Clone)]
pub struct SddmmReport {
    /// Display name of the schedule.
    pub algorithm: String,
    /// Simulated execution time (latest rank finish).
    pub seconds: f64,
    /// Total dense elements of `Y` received across ranks.
    pub elements_received: u64,
    /// Counters and histograms merged across ranks (empty unless
    /// [`RunOptions::observability`] enabled recording).
    pub metrics: MetricsRegistry,
    /// The output sparse matrix (on `A`'s pattern), when values were
    /// computed.
    pub output: Option<CooMatrix>,
}

/// Serial reference SDDMM: `C_ij = A_ij · dot(X[i, :], Y[j, :])`.
///
/// # Panics
///
/// Panics if `x.rows() != a.rows()`, `y.rows() != a.cols()`, or
/// `x.cols() != y.cols()`.
pub fn reference_sddmm(a: &CooMatrix, x: &DenseMatrix, y: &DenseMatrix) -> CooMatrix {
    assert_eq!(x.rows(), a.rows(), "X must have one row per A row");
    assert_eq!(y.rows(), a.cols(), "Y must have one row per A column");
    assert_eq!(x.cols(), y.cols(), "X and Y must share K");
    let triplets: Vec<Triplet> =
        a.iter().map(|(r, c, v)| Triplet::new(r, c, v * dot(x.row(r), y.row(c)))).collect();
    CooMatrix::from_sorted_triplets(a.rows(), a.cols(), triplets)
        .expect("pattern unchanged, still sorted and in bounds")
}

fn dot(a: &[Scalar], b: &[Scalar]) -> Scalar {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Runs a distributed SDDMM.
///
/// `problem.b` plays the role of `Y` (distributed like SpMM's `B`); `x` is
/// the row-aligned dense factor (each rank holds its row block). Reuses the
/// SpMM partition plan machinery verbatim: `options.plan` if supplied, else
/// a plan built as [`run_algorithm`](crate::run_algorithm) builds one, with
/// `options.classifier`; the ranks' structures are built as
/// [`PreparedMatrix::build`] builds them.
///
/// # Errors
///
/// Returns [`RunError::InvalidConfig`] when `options.config` has a zero
/// field ([`TwoFaceConfig::check`]); [`RunError::Shape`] for mismatched
/// factors, for an
/// `options.plan` built for another layout, or for one built for another
/// matrix whose classification misses a stripe `problem` has nonzeros in,
/// and propagates validation failures when `options.validate` is set.
pub fn run_sddmm(
    algorithm: SddmmAlgorithm,
    problem: &Problem,
    x: &DenseMatrix,
    cost: &CostModel,
    options: &RunOptions,
) -> Result<SddmmReport, RunError> {
    options.config.check()?;
    let k = problem.k();
    if x.rows() != problem.a.rows() || x.cols() != k {
        return Err(RunError::Shape {
            context: format!(
                "X is {}x{} but A has {} rows and Y has {} columns",
                x.rows(),
                x.cols(),
                problem.a.rows(),
                k
            ),
        });
    }
    let effective = options.config.effective_cost(cost);
    let coefficients = options.coefficients.unwrap_or_else(|| ModelCoefficients::from(&effective));
    let plan: Arc<PartitionPlan> = match (&options.plan, algorithm) {
        (Some(plan), _) => Arc::clone(plan),
        (None, SddmmAlgorithm::AsyncFine) => Arc::new(PartitionPlan::build_uniform(
            &problem.a,
            problem.layout.clone(),
            k,
            StripeClass::Async,
        )),
        (None, SddmmAlgorithm::Allgather) => Arc::new(PartitionPlan::build_uniform(
            &problem.a,
            problem.layout.clone(),
            k,
            StripeClass::Sync,
        )),
        (None, SddmmAlgorithm::TwoFace) => Arc::new(prepare_plan_with_classifier(
            problem,
            &coefficients,
            &effective,
            options.classifier,
        )),
    };
    check_plan_layout(&plan, problem)?;
    let pool = Pool::new(resolve_workers(options.workers));
    let panel_height = options.config.row_panel_height;
    let prepared = PreparedMatrix::from_plan(problem, plan, coefficients, panel_height, &pool)?;
    let b_blocks = stage_b_blocks(problem, &pool);
    let compute = options.compute_values || options.validate;

    let p = problem.layout.nodes();
    let diagnostics = resolve_observability(&options.observability);
    let cluster = Cluster::new(p, effective);
    cluster.set_fault_plan(options.fault_plan.clone());
    cluster.set_observability(diagnostics.observability.clone());
    let outputs = cluster.run(|ctx| {
        let b_block = &b_blocks[ctx.rank()];
        sddmm_rank(ctx, &prepared, b_block, problem, x, &options.config, compute)
    });
    let (rank_results, report) = harvest(outputs, &diagnostics)?;
    let output = compute.then(|| {
        CooMatrix::from_triplets(problem.a.rows(), problem.a.cols(), rank_results.concat())
            .expect("pattern coordinates stay in bounds")
    });
    if options.validate {
        let got = output.as_ref().expect("validate implies compute");
        let want = reference_sddmm(&problem.a, x, &problem.b);
        let max_diff = got
            .iter()
            .zip(want.iter())
            .map(|((_, _, g), (_, _, w))| (g - w).abs())
            .fold(0.0, f64::max);
        if got.nnz() != want.nnz() || max_diff > 1e-9 {
            return Err(RunError::ValidationFailed { max_abs_diff: max_diff });
        }
    }
    Ok(SddmmReport {
        algorithm: algorithm.to_string(),
        seconds: report.seconds,
        elements_received: report.elements_received,
        metrics: report.metrics,
        output,
    })
}

/// Per-rank SDDMM body: Two-Face's transfer schedule with dot-product
/// kernels. Returns the rank's output triplets in global coordinates.
fn sddmm_rank(
    ctx: &mut twoface_net::RankCtx,
    prepared: &PreparedMatrix,
    b_block: &Arc<Vec<f64>>,
    problem: &Problem,
    x: &DenseMatrix,
    config: &TwoFaceConfig,
    compute: bool,
) -> Result<Vec<Triplet>, NetError> {
    let rank = ctx.rank();
    let layout = &problem.layout;
    let k = problem.k();
    let matrices = &prepared.rank_matrices()[rank];
    let row_base = layout.row_range(rank).start;

    let win = ctx.create_window(Arc::clone(b_block))?;
    // Sync lane: SpMM's dense-stripe multicasts, now carrying Y rows.
    let stripe_buffers = sync_multicasts(ctx, prepared.plan(), b_block, k)?;

    let mut out: Vec<Triplet> = Vec::with_capacity(matrices.nnz());

    // Async lane: coalesced gets + one dot product per nonzero.
    let max_distance = config.max_coalesce_distance(k);
    for stripe in matrices.asynchronous.stripes() {
        let owner = layout.stripe_owner(stripe.stripe);
        let col_base = layout.col_range(owner).start;
        let owner_local: Vec<usize> =
            stripe.unique_cols.iter().map(|&c| c as usize - col_base).collect();
        let (runs, _) = coalesce_rows(&owner_local, max_distance);
        let fetched = ctx.win_rget_rows(win, owner, &runs, k)?;
        let cost = ctx.cost().async_compute_cost(stripe.nnz(), k, 1);
        ctx.advance_span(Lane::Async, cost, PhaseClass::AsyncComp, (stripe.nnz() * k) as u64, None);
        if compute {
            let rows_src = FetchedRows::new(&runs, col_base, fetched, k);
            let mut cursor = RowCursor::default();
            for t in &stripe.entries {
                let y = rows_src.row_with(&mut cursor, t.col());
                let value = t.val * dot(x.row(row_base + t.row()), y);
                out.push(Triplet::new(row_base + t.row(), t.col(), value));
            }
        }
    }

    // Sync lane: row-panel dot products over sync/local-input entries.
    let sync_local = &matrices.sync_local;
    if sync_local.nnz() > 0 {
        let cost =
            ctx.cost().sync_compute_cost(sync_local.nnz(), k, sync_local.num_nonempty_panels());
        ctx.advance_span(
            Lane::Sync,
            cost,
            PhaseClass::SyncComp,
            (sync_local.nnz() * k) as u64,
            None,
        );
        if compute {
            let mut cursor = RowCursor::default();
            for t in sync_local.entries() {
                let y = stripe_buffers.row_with(&mut cursor, t.col());
                let value = t.val * dot(x.row(row_base + t.row()), y);
                out.push(Triplet::new(row_base + t.row(), t.col(), value));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use twoface_matrix::gen::{webcrawl, WebcrawlConfig};
    use twoface_partition::ClassifierKind;

    fn fixture() -> (Problem, DenseMatrix) {
        let a =
            webcrawl(&WebcrawlConfig { n: 512, hosts: 16, per_row: 6, ..Default::default() }, 31);
        let problem = Problem::with_generated_b(Arc::new(a), 8, 4, 32).expect("fixture is valid");
        let x = DenseMatrix::from_fn(512, 8, |i, j| ((i * 3 + j) % 7) as f64 / 7.0);
        (problem, x)
    }

    #[test]
    fn reference_scales_values_by_dot_products() {
        let a = CooMatrix::from_triplets(2, 2, vec![(0, 1, 2.0)]).unwrap();
        let x = DenseMatrix::from_rows(vec![vec![1.0, 2.0], vec![0.0, 0.0]]).unwrap();
        let y = DenseMatrix::from_rows(vec![vec![5.0, 5.0], vec![3.0, 4.0]]).unwrap();
        let c = reference_sddmm(&a, &x, &y);
        // dot(X[0], Y[1]) = 1*3 + 2*4 = 11; value = 2 * 11 = 22.
        assert_eq!(c.triplets()[0].val, 22.0);
    }

    #[test]
    fn all_schedules_validate() {
        let (problem, x) = fixture();
        let cost = CostModel::delta_scaled();
        let options = RunOptions { validate: true, ..Default::default() };
        for algo in [SddmmAlgorithm::TwoFace, SddmmAlgorithm::AsyncFine, SddmmAlgorithm::Allgather]
        {
            let report = run_sddmm(algo, &problem, &x, &cost, &options)
                .unwrap_or_else(|e| panic!("{algo} failed: {e}"));
            assert!(report.seconds > 0.0);
            assert_eq!(report.output.unwrap().nnz(), problem.a.nnz());
        }
    }

    #[test]
    fn output_pattern_matches_input_pattern() {
        let (problem, x) = fixture();
        let cost = CostModel::delta_scaled();
        let report =
            run_sddmm(SddmmAlgorithm::TwoFace, &problem, &x, &cost, &RunOptions::default())
                .unwrap();
        let out = report.output.unwrap();
        for ((r1, c1, _), (r2, c2, _)) in out.iter().zip(problem.a.iter()) {
            assert_eq!((r1, c1), (r2, c2));
        }
    }

    #[test]
    fn mismatched_x_is_rejected() {
        let (problem, _) = fixture();
        let bad_x = DenseMatrix::zeros(100, 8);
        let err = run_sddmm(
            SddmmAlgorithm::TwoFace,
            &problem,
            &bad_x,
            &CostModel::delta_scaled(),
            &RunOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, RunError::Shape { .. }));
    }

    #[test]
    fn sddmm_moves_same_data_as_spmm() {
        // The communication schedule is identical to SpMM's: same plan, same
        // transfers, so the same element volume moves, under either
        // classifier.
        let (problem, x) = fixture();
        let cost = CostModel::delta_scaled();
        let fanout_aware = ClassifierKind::FanoutAware { penalty: 1.0 };
        let mut volumes = Vec::new();
        for classifier in [ClassifierKind::Greedy, fanout_aware] {
            let options = RunOptions { compute_values: false, classifier, ..Default::default() };
            let sddmm = run_sddmm(SddmmAlgorithm::TwoFace, &problem, &x, &cost, &options).unwrap();
            let spmm =
                crate::run_algorithm(crate::Algorithm::TwoFace, &problem, &cost, &options).unwrap();
            assert_eq!(sddmm.elements_received, spmm.elements_received, "{classifier:?}");
            volumes.push(spmm.elements_received);
        }
        // The fan-out-aware plan is not the greedy one here.
        assert_ne!(volumes[0], volumes[1], "both classifiers move the same volume");
    }
}
