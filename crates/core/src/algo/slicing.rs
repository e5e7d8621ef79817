//! The one-sided slicing algorithm: every rank fetches exactly the `B` rows
//! its nonzeros touch, one passive-target `MPI_Rget` per remote block.
//!
//! This is the fully asynchronous end of the design space the paper spans:
//! no collectives after window creation, no replication, and transfer volume
//! proportional to the *unique* columns referenced rather than to whole
//! blocks. Runs ride the async lane with LogGP retry/backoff semantics, the
//! same machinery Two-Face's asynchronous stripes use — slicing is what
//! Two-Face degenerates to when the classifier marks every stripe
//! asynchronous, minus the stripe-width granularity.
//!
//! Per-owner fetches are issued in ascending block order and entries within
//! a block stay row-major, so each output row accumulates one partial sum
//! per block, in ascending block order — deterministic for any worker
//! count (and bit-identical to the serial reference whenever the partial
//! sums are exact, e.g. on integer-valued operands).

use crate::algo::collective::BaselineData;
use crate::algo::SpmmAlgorithm;
use crate::coalesce::coalesce_rows;
use crate::config::TwoFaceConfig;
use crate::error::RankError;
use crate::kernels::{par_sync_panels, BlockRows, FetchedRows};
use crate::pool::Pool;
use crate::runner::{ExecOpts, Problem};
use std::sync::Arc;
use twoface_matrix::SCALAR_BYTES;
use twoface_net::{Lane, NetError, PhaseClass, RankCtx};

/// Staged one-sided slicing execution.
pub(crate) struct SlicingAlgo<'a> {
    pub data: BaselineData,
    pub problem: &'a Problem,
    pub exec: ExecOpts,
    pub config: &'a TwoFaceConfig,
}

impl SpmmAlgorithm for SlicingAlgo<'_> {
    fn memory_extra(&self, rank: usize) -> usize {
        // The largest single fetch stays resident twice: once as the wire
        // buffer, once as the kernel's row view.
        let layout = &self.problem.layout;
        let p = layout.nodes();
        let mut max_rows = 0usize;
        for owner in 0..p {
            if owner == rank {
                continue;
            }
            let entries = &self.data.triplets_by_block[rank][owner];
            let mut cols: Vec<usize> = entries.iter().map(|t| t.col).collect();
            cols.sort_unstable();
            cols.dedup();
            max_rows = max_rows.max(cols.len());
        }
        2 * max_rows * self.exec.k * SCALAR_BYTES
    }

    fn execute(&self, ctx: &mut RankCtx) -> Result<Vec<f64>, RankError> {
        Ok(slicing_rank(ctx, &self.data, self.problem, self.config, &self.exec)?)
    }
}

/// The per-rank slicing body.
fn slicing_rank(
    ctx: &mut RankCtx,
    data: &BaselineData,
    problem: &Problem,
    config: &TwoFaceConfig,
    opts: &ExecOpts,
) -> Result<Vec<f64>, NetError> {
    let rank = ctx.rank();
    let p = ctx.ranks();
    let layout = &problem.layout;
    let k = opts.k;

    // Window creation is the only collective; everything after is one-sided.
    let win = ctx.create_window(Arc::clone(&data.b_blocks[rank]))?;

    let local_rows = layout.row_range(rank).len();
    let mut c_local = vec![0.0; local_rows * k];
    let pool = Pool::new(opts.workers);
    let max_distance = config.max_coalesce_distance(k);

    for owner in 0..p {
        let entries = &data.triplets_by_block[rank][owner];
        if entries.is_empty() {
            continue;
        }
        let cost = ctx.cost().async_compute_cost(entries.len(), k, 1);
        if owner == rank {
            // Own block: no transfer, straight to the kernel.
            if opts.compute {
                let mut rows_src = BlockRows::new(layout, k);
                rows_src.add_block(layout.col_range(rank), Arc::clone(&data.b_blocks[rank]));
                par_sync_panels(&pool, entries, &rows_src, &mut c_local, k);
            }
        } else {
            let col_base = layout.col_range(owner).start;
            // UniqueColIDs of this block: entries are row-major, so the
            // column list needs the runtime sort+dedup the paper's slicing
            // baselines pay.
            let mut cols: Vec<usize> = entries.iter().map(|t| t.col - col_base).collect();
            cols.sort_unstable();
            cols.dedup();
            let (runs, _padding) = coalesce_rows(&cols, max_distance);
            if ctx.events_enabled() {
                for &(_, len) in &runs {
                    ctx.observe("coalesced_run_rows", len as u64);
                }
            }
            let fetched = ctx.win_rget_rows(win, owner, &runs, k)?;
            if opts.compute {
                let rows_src = FetchedRows::new(&runs, col_base, fetched, k);
                par_sync_panels(&pool, entries, &rows_src, &mut c_local, k);
            }
        }
        ctx.advance_span(
            Lane::Async,
            cost,
            PhaseClass::AsyncComp,
            (entries.len() * k) as u64,
            None,
        );
    }
    Ok(c_local)
}
