//! Sampled / mini-batch GNN support (§5.4's future-work sketch).
//!
//! The paper notes Two-Face is incompatible with sampling as-is, because
//! each sampled iteration uses a different reduced matrix and re-running
//! preprocessing every time would be prohibitive. Its proposed fix:
//! *classify once, offline, on the expected densities; at runtime keep the
//! Figure-6 storage and apply per-iteration masks that filter the
//! eliminated nonzeros.* This module implements that sketch:
//!
//! * [`EdgeSampler`] derives a deterministic per-epoch [`EdgeMask`] — each
//!   nonzero survives with probability `keep_probability`, decided by a hash
//!   of `(row, col, epoch, seed)`, so every rank agrees on the mask without
//!   any communication;
//! * [`run_sampled_twoface`] executes a normal Two-Face SpMM over the
//!   *fixed* [`PreparedMatrix`] — the one-time plan and Figure-6 storage of
//!   the full matrix — while skipping masked nonzeros: synchronous
//!   multicasts keep their offline schedule (the stripes were classified for
//!   expected density), and asynchronous stripes shrink their fetches to
//!   exactly the rows the surviving nonzeros reference — fully masked
//!   stripes transfer nothing. An epoch builds no rank structures.

use crate::algo::twoface::{stage_b_blocks, twoface_rank, StripeSource};
use crate::format::{AsyncStripe, RankMatrices};
use crate::kernels::{par_sync_panels, BlockRows};
use crate::pool::{resolve_workers, Pool};
use crate::reference::reference_spmm;
use crate::runner::{
    check_plan_layout, harvest, resolve_observability, stack_blocks, ExecOpts, Problem,
};
use crate::{PreparedMatrix, RunError, RunOptions};
use twoface_matrix::{CooMatrix, DenseMatrix, Entry, Scalar, SmallTriplet};
use twoface_net::{Cluster, CostModel, MetricsRegistry, NetError};

/// Derives deterministic per-epoch edge masks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeSampler {
    /// Probability each nonzero survives an epoch's mask.
    pub keep_probability: f64,
    /// Base seed; different seeds give independent mask sequences.
    pub seed: u64,
}

impl EdgeSampler {
    /// Creates a sampler.
    ///
    /// # Panics
    ///
    /// Panics if `keep_probability` is not in `[0, 1]`.
    pub fn new(keep_probability: f64, seed: u64) -> EdgeSampler {
        assert!((0.0..=1.0).contains(&keep_probability), "keep_probability must be a probability");
        EdgeSampler { keep_probability, seed }
    }

    /// The mask for one training epoch.
    pub fn mask(&self, epoch: u64) -> EdgeMask {
        EdgeMask {
            threshold: (self.keep_probability * u64::MAX as f64) as u64,
            salt: self
                .seed
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add(epoch.wrapping_mul(0xC2B2AE3D27D4EB4F)),
        }
    }
}

/// One epoch's deterministic nonzero filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeMask {
    threshold: u64,
    salt: u64,
}

impl EdgeMask {
    /// Whether the nonzero at global `(row, col)` survives this epoch.
    pub fn is_active(&self, row: usize, col: usize) -> bool {
        let mut h = (row as u64)
            .wrapping_mul(0xD6E8FEB86659FD93)
            .wrapping_add((col as u64).wrapping_mul(0xFF51AFD7ED558CCD))
            .wrapping_add(self.salt);
        h ^= h >> 33;
        h = h.wrapping_mul(0xC4CEB9FE1A85EC53);
        h ^= h >> 29;
        h <= self.threshold
    }

    /// Materializes the sampled matrix (used by correctness oracles; the
    /// runtime never builds it).
    pub fn apply(&self, a: &CooMatrix) -> CooMatrix {
        let triplets: Vec<_> =
            a.triplets().iter().filter(|t| self.is_active(t.row, t.col)).copied().collect();
        CooMatrix::from_sorted_triplets(a.rows(), a.cols(), triplets)
            .expect("filtering preserves order and bounds")
    }
}

/// Result of one sampled SpMM epoch.
#[derive(Debug, Clone)]
pub struct SampledReport {
    /// Simulated execution time (latest rank finish).
    pub seconds: f64,
    /// Dense elements transferred this epoch.
    pub elements_received: u64,
    /// Surviving nonzeros this epoch.
    pub active_nnz: usize,
    /// Counters and histograms merged across ranks (empty unless
    /// [`RunOptions::observability`] enabled recording).
    pub metrics: MetricsRegistry,
    /// The epoch's output, when values were computed.
    pub output: Option<DenseMatrix>,
}

/// Runs one sampled Two-Face SpMM epoch over `prepared`, the *full*
/// matrix's one-time preprocessing: the mask only filters its stored
/// nonzeros at runtime, exactly as §5.4 proposes.
///
/// `prepared` is held to the contract of
/// [`RunOptions::prepared`](crate::RunOptions::prepared): built for
/// `problem`'s `A` and layout, at any `K`. Its rank structures are used only
/// when it was built for `options.config.row_panel_height`; a masked run has
/// no other structures to fall back on, so any other height is an error.
/// `options.plan` and `options.prepared` are ignored.
///
/// # Errors
///
/// Returns [`RunError::InvalidConfig`] when `options.config` has a zero
/// field ([`TwoFaceConfig::check`](crate::TwoFaceConfig::check));
/// [`RunError::Shape`] when `prepared` was built for another layout or
/// another row-panel height; [`RunError::ValidationFailed`] when
/// `options.validate` is set and the output disagrees with a serial SpMM over
/// the masked matrix; and [`RunError::TransferTimeout`] /
/// [`RunError::RankStalled`], with the failing rank's flight-recorder tail,
/// when `options.fault_plan` injects faults the run cannot absorb.
pub fn run_sampled_twoface(
    problem: &Problem,
    prepared: &PreparedMatrix,
    mask: EdgeMask,
    cost: &CostModel,
    options: &RunOptions,
) -> Result<SampledReport, RunError> {
    options.config.check()?;
    check_plan_layout(prepared.plan(), problem)?;
    let panel_height = options.config.row_panel_height;
    if prepared.panel_height() != panel_height {
        return Err(RunError::Shape {
            context: format!(
                "prepared artifact was built for row panels of {} rows but the run asks for {}",
                prepared.panel_height(),
                panel_height
            ),
        });
    }
    let k = problem.k();
    let workers = resolve_workers(options.workers);
    let exec = ExecOpts {
        k,
        compute: options.compute_values || options.validate,
        panel_height: options.config.row_panel_height,
        workers,
    };
    let effective = options.config.effective_cost(cost);
    let (plan, matrices) = (prepared.plan(), prepared.rank_matrices());
    let b_blocks = stage_b_blocks(problem, &Pool::new(workers));
    let diagnostics = resolve_observability(&options.observability);
    let cluster = Cluster::new(problem.layout.nodes(), effective);
    cluster.set_fault_plan(options.fault_plan.clone());
    cluster.set_observability(diagnostics.observability.clone());
    let outputs = cluster.run(|ctx| {
        let rank = ctx.rank();
        let source = MaskedSource {
            matrices: &matrices[rank],
            mask,
            row_base: problem.layout.row_range(rank).start,
            stripe: AsyncStripe::default(),
        };
        twoface_rank(ctx, |_, _, _| Ok(source), plan, &b_blocks[rank], &options.config, &exec)
    });
    let (blocks, report) = harvest(outputs, &diagnostics)?;
    let output = exec.compute.then(|| stack_blocks(problem.a.rows(), k, &blocks));
    if options.validate {
        let got = output.as_ref().expect("validate implies compute");
        let want = reference_spmm(&mask.apply(&problem.a), &problem.b);
        if !got.approx_eq(&want, 1e-9) {
            return Err(RunError::ValidationFailed { max_abs_diff: got.max_abs_diff(&want) });
        }
    }
    Ok(SampledReport {
        seconds: report.seconds,
        elements_received: report.elements_received,
        active_nnz: problem.a.iter().filter(|&(row, col, _)| mask.is_active(row, col)).count(),
        metrics: report.metrics,
        output,
    })
}

/// [`StripeSource`] over one rank's resident structures under an epoch's
/// mask: masked-out nonzeros are filtered into reused buffers, so an
/// asynchronous stripe fetches only the rows its surviving nonzeros
/// reference, and a stripe with none left transfers nothing.
struct MaskedSource<'a> {
    matrices: &'a RankMatrices,
    mask: EdgeMask,
    /// Global row of the rank's first local row.
    row_base: usize,
    /// The surviving nonzeros of the stripe being visited; its entries
    /// then hold the surviving sync/local nonzeros.
    stripe: AsyncStripe,
}

impl MaskedSource<'_> {
    /// The epoch's filter over this rank's (local-row) entries.
    fn active(&self) -> impl Fn(&&SmallTriplet) -> bool {
        let (mask, row_base) = (self.mask, self.row_base);
        move |t| mask.is_active(row_base + t.row(), t.col())
    }
}

impl StripeSource for MaskedSource<'_> {
    type Error = NetError;

    fn for_each_async(
        &mut self,
        mut visit: impl FnMut(&AsyncStripe) -> Result<(), NetError>,
    ) -> Result<(), NetError> {
        let active = self.active();
        for stripe in self.matrices.asynchronous.stripes() {
            self.stripe.stripe = stripe.stripe;
            self.stripe.entries.clear();
            self.stripe.entries.extend(stripe.entries.iter().filter(&active));
            self.stripe.index_cols();
            visit(&self.stripe)?;
        }
        Ok(())
    }

    fn sync_counts(&self) -> (usize, usize) {
        let sync = &self.matrices.sync_local;
        (sync.entries().iter().filter(self.active()).count(), sync.num_nonempty_panels())
    }

    fn sync_compute(
        &mut self,
        pool: &Pool,
        rows: &BlockRows<'_>,
        c_local: &mut [Scalar],
        k: usize,
    ) -> Result<(), NetError> {
        let active = self.active();
        let entries = &mut self.stripe.entries;
        entries.clear();
        entries.extend(self.matrices.sync_local.entries().iter().filter(&active));
        par_sync_panels(pool, entries, rows, c_local, k);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use twoface_matrix::gen::{webcrawl, WebcrawlConfig};
    use twoface_net::FaultPlan;

    fn fixture() -> (Problem, PreparedMatrix, CostModel) {
        let a = webcrawl(
            &WebcrawlConfig {
                n: 512,
                hosts: 16,
                per_row: 6,
                intra_host: 0.7,
                ..Default::default()
            },
            55,
        );
        let problem = Problem::with_generated_b(Arc::new(a), 8, 4, 32).expect("valid");
        let cost = CostModel::delta_scaled();
        let prepared =
            PreparedMatrix::build(&problem, &cost, &RunOptions::default()).expect("fits");
        (problem, prepared, cost)
    }

    #[test]
    fn masks_are_deterministic_and_epoch_dependent() {
        let sampler = EdgeSampler::new(0.5, 9);
        let m1 = sampler.mask(0);
        let m2 = sampler.mask(0);
        let m3 = sampler.mask(1);
        assert_eq!(m1, m2);
        assert_ne!(m1, m3);
        // Epoch masks actually differ in effect.
        let a = webcrawl(&WebcrawlConfig { n: 256, ..Default::default() }, 1);
        assert_ne!(m1.apply(&a), m3.apply(&a));
    }

    #[test]
    fn keep_probability_is_respected_approximately() {
        let sampler = EdgeSampler::new(0.3, 4);
        let mask = sampler.mask(7);
        let a = webcrawl(&WebcrawlConfig { n: 2048, per_row: 10, ..Default::default() }, 2);
        let kept = mask.apply(&a).nnz() as f64 / a.nnz() as f64;
        assert!((0.25..0.35).contains(&kept), "kept fraction {kept}");
    }

    #[test]
    fn extreme_probabilities() {
        let a = webcrawl(&WebcrawlConfig { n: 256, ..Default::default() }, 3);
        assert_eq!(EdgeSampler::new(1.0, 1).mask(0).apply(&a), a);
        assert_eq!(EdgeSampler::new(0.0, 1).mask(0).apply(&a).nnz(), 0);
    }

    #[test]
    fn sampled_epoch_validates_against_masked_reference() {
        let (problem, prepared, cost) = fixture();
        let sampler = EdgeSampler::new(0.6, 11);
        for epoch in 0..3 {
            let report = run_sampled_twoface(
                &problem,
                &prepared,
                sampler.mask(epoch),
                &cost,
                &RunOptions { validate: true, ..Default::default() },
            )
            .unwrap_or_else(|e| panic!("epoch {epoch} failed: {e}"));
            assert!(report.active_nnz > 0);
            assert!(report.active_nnz < problem.a.nnz());
        }
    }

    #[test]
    fn sampling_reduces_async_transfer_volume() {
        let (problem, prepared, cost) = fixture();
        let full = run_sampled_twoface(
            &problem,
            &prepared,
            EdgeSampler::new(1.0, 1).mask(0),
            &cost,
            &RunOptions { compute_values: false, ..Default::default() },
        )
        .unwrap();
        let sampled = run_sampled_twoface(
            &problem,
            &prepared,
            EdgeSampler::new(0.2, 1).mask(0),
            &cost,
            &RunOptions { compute_values: false, ..Default::default() },
        )
        .unwrap();
        // Sync multicasts keep their offline schedule, but async fetches
        // shrink with the mask, so total volume must not grow — and with an
        // async-heavy fixture it strictly shrinks.
        assert!(
            sampled.elements_received <= full.elements_received,
            "sampling increased traffic: {} > {}",
            sampled.elements_received,
            full.elements_received
        );
        assert!(sampled.seconds <= full.seconds + 1e-12);
    }

    #[test]
    fn faulted_epoch_error_carries_the_flight_recorder_tail() {
        let (problem, prepared, cost) = fixture();
        let options = RunOptions {
            fault_plan: Some(FaultPlan::seeded(3).with_get_failure_rate(1.0)),
            ..Default::default()
        };
        let mask = EdgeSampler::new(0.6, 11).mask(0);
        let err = run_sampled_twoface(&problem, &prepared, mask, &cost, &options)
            .expect_err("every get fails");
        assert!(matches!(err, RunError::TransferTimeout { .. }), "got {err:?}");
        assert!(!err.flight().is_empty(), "the failing rank's last operations are attached");
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn invalid_probability_panics() {
        let _ = EdgeSampler::new(1.5, 0);
    }
}
