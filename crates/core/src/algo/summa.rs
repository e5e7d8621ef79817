//! Stationary-`C` 2D SUMMA over a logical rank grid.
//!
//! The `p` ranks are viewed as a [`Grid2d::square_ish`] `p_r × p_c` grid
//! (non-square and degenerate `1 × p` grids included). The `p` `B` blocks
//! are split into `p_c` contiguous **bands**, one per grid column:
//!
//! 1. **Stage** — every block is multicast by its owner down the grid
//!    column its band belongs to (the owner joins the group when it sits in
//!    another column). Fan-out is `p_r`, the paper's row/column-multicast
//!    round structure.
//! 2. **Compute** — rank `(i, j)` computes partial `C` blocks for every
//!    member of grid row `i`, over the blocks of band `j` alone. Bands
//!    partition the blocks, so each nonzero is computed exactly once.
//! 3. **Reduce** — partials reduce across each grid row pairwise, summed in
//!    ascending grid-column order (deterministic for any worker count).
//!
//! [`Grid2d::square_ish`]: twoface_net::Grid2d::square_ish

use crate::algo::collective::{charge_local_compute, BaselineData};
use crate::algo::SpmmAlgorithm;
use crate::error::RankError;
use crate::kernels::{par_sync_panels, BlockRows};
use crate::pool::Pool;
use crate::runner::{ExecOpts, Problem};
use std::sync::Arc;
use twoface_matrix::SCALAR_BYTES;
use twoface_net::{Grid2d, NetError, Payload, RankCtx};

/// Balanced contiguous band split: band `j` holds blocks
/// `[j·p/p_c, (j+1)·p/p_c)`; sizes differ by at most one and every band is
/// nonempty for `p_c ≤ p`.
fn band_range(p: usize, p_c: usize, j: usize) -> std::ops::Range<usize> {
    (j * p / p_c)..((j + 1) * p / p_c)
}

/// Staged SUMMA execution.
pub(crate) struct SummaAlgo<'a> {
    pub data: BaselineData,
    pub problem: &'a Problem,
    pub exec: ExecOpts,
    grid: Grid2d,
    /// Band index of each block, precomputed for the staging loop.
    band_of: Vec<usize>,
}

impl<'a> SummaAlgo<'a> {
    /// Builds the grid geometry for the problem's rank count.
    pub fn stage(data: BaselineData, problem: &'a Problem, exec: ExecOpts) -> SummaAlgo<'a> {
        let p = problem.layout.nodes();
        let grid = Grid2d::square_ish(p);
        let mut band_of = vec![0usize; p];
        for j in 0..grid.cols() {
            for b in band_range(p, grid.cols(), j) {
                band_of[b] = j;
            }
        }
        SummaAlgo { data, problem, exec, grid, band_of }
    }
}

impl SpmmAlgorithm for SummaAlgo<'_> {
    fn memory_extra(&self, rank: usize) -> usize {
        let layout = &self.problem.layout;
        let p = layout.nodes();
        let row_bytes = self.exec.k * SCALAR_BYTES;
        let (i, j) = self.grid.coords(rank);
        // Resident band blocks...
        let blocks: usize =
            band_range(p, self.grid.cols(), j).map(|b| layout.col_range(b).len()).sum();
        // ...plus a partial accumulator per row-team member and one
        // in-flight received partial.
        let row_team = self.grid.row_team(i);
        let partials: usize = row_team.iter().map(|&m| layout.row_range(m).len()).sum();
        let in_flight = row_team.iter().map(|&m| layout.row_range(m).len()).max().unwrap_or(0);
        (blocks + partials + in_flight) * row_bytes
    }

    fn execute(&self, ctx: &mut RankCtx) -> Result<Vec<f64>, RankError> {
        Ok(summa_rank(ctx, &self.data, self.problem, self.grid, &self.band_of, &self.exec)?)
    }
}

/// The per-rank SUMMA body.
fn summa_rank(
    ctx: &mut RankCtx,
    data: &BaselineData,
    problem: &Problem,
    grid: Grid2d,
    band_of: &[usize],
    opts: &ExecOpts,
) -> Result<Vec<f64>, NetError> {
    let rank = ctx.rank();
    let p = ctx.ranks();
    let layout = &problem.layout;
    let k = opts.k;
    let (i, j) = grid.coords(rank);
    let row_team = grid.row_team(i);

    // --- Stage: canonical ascending block order; block b goes to the grid
    // column of its band, rooted at its owner (who may sit elsewhere).
    let mut rows_src = BlockRows::new(layout, k);
    for (b, &jb) in band_of.iter().enumerate().take(p) {
        let in_team = jb == j;
        if !in_team && b != rank {
            continue;
        }
        let mut group = grid.col_team(jb);
        if let Err(pos) = group.binary_search(&b) {
            group.insert(pos, b); // owner outside the destination column
        }
        let payload = (b == rank).then(|| Payload::from(Arc::clone(&data.b_blocks[rank])));
        let buf = ctx.multicast(b as u64, b, &group, payload)?;
        if in_team {
            if b == rank {
                rows_src.add_block(layout.col_range(b), Arc::clone(&data.b_blocks[rank]));
            } else {
                rows_src.add_block(layout.col_range(b), buf);
            }
        }
    }

    // --- Compute: one partial per row-team member over band j's blocks.
    let pool = Pool::new(opts.workers);
    let mut partials: Vec<Vec<f64>> = Vec::with_capacity(row_team.len());
    for &m in &row_team {
        let m_rows = layout.row_range(m).len();
        let mut part = vec![0.0; m_rows * k];
        for b in band_range(p, grid.cols(), j) {
            let entries = &data.triplets_by_block[m][b];
            if entries.is_empty() {
                continue;
            }
            charge_local_compute(ctx, entries.len(), opts, m_rows);
            if opts.compute {
                par_sync_panels(&pool, entries, &rows_src, &mut part, k);
            }
        }
        partials.push(part);
    }

    // --- Reduce across the grid row, ascending source (= grid column)
    // order. Tags offset past the stage range; unique per (d, src).
    let my_rows = layout.row_range(rank).len();
    let mut c_local = vec![0.0; my_rows * k];
    for (di, &d) in row_team.iter().enumerate() {
        for &src in &row_team {
            if src == d {
                if d == rank {
                    let own = std::mem::take(&mut partials[di]);
                    for (out, v) in c_local.iter_mut().zip(&own) {
                        *out += *v;
                    }
                }
                continue;
            }
            if rank != d && rank != src {
                continue;
            }
            let group = if src < d { vec![src, d] } else { vec![d, src] };
            let tag = (p + d * p + src) as u64;
            let payload = (rank == src).then(|| Payload::from(std::mem::take(&mut partials[di])));
            let buf = ctx.multicast(tag, src, &group, payload)?;
            if rank == d {
                for (out, v) in c_local.iter_mut().zip(buf.iter()) {
                    *out += *v;
                }
            }
        }
    }
    Ok(c_local)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bands_partition_the_blocks() {
        for p in [1usize, 4, 5, 6, 7, 12] {
            let grid = Grid2d::square_ish(p);
            let mut seen = vec![false; p];
            for j in 0..grid.cols() {
                let band = band_range(p, grid.cols(), j);
                assert!(!band.is_empty(), "p={p} band {j} empty");
                for b in band {
                    assert!(!seen[b], "p={p} block {b} in two bands");
                    seen[b] = true;
                }
            }
            assert!(seen.into_iter().all(|s| s), "p={p}: every block in a band");
        }
    }
}
