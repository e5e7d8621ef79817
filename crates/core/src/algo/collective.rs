//! Per-rank bodies of the baseline algorithms: Allgather, Async Coarse, and
//! Dense Shifting — plus their staged [`SpmmAlgorithm`] wrappers.

use crate::algo::SpmmAlgorithm;
use crate::error::RankError;
use crate::kernels::{par_sync_panels, BlockRows};
use crate::pool::Pool;
use crate::runner::{ExecOpts, Problem};
use std::sync::Arc;
use twoface_matrix::{Triplet, SCALAR_BYTES};
use twoface_net::{Lane, NetError, Payload, PhaseClass, RankCtx};

/// Shared preprocessed inputs for the baselines, indexed by rank.
pub(crate) struct BaselineData {
    /// Each rank's nonzeros, row-major, rows rebased to the rank's block.
    pub local_triplets: Vec<Vec<Triplet>>,
    /// Each rank's nonzeros grouped by the column block (owner) they index;
    /// `triplets_by_block[rank][block]` stays row-major. Built only for
    /// dense shifting.
    pub triplets_by_block: Vec<Vec<Vec<Triplet>>>,
    /// Each rank's block of `B`, flat `block_rows x K`.
    pub b_blocks: Vec<Arc<Vec<f64>>>,
    /// For Async Coarse: the sorted remote block owners each rank needs.
    pub needed_blocks: Vec<Vec<usize>>,
}

impl BaselineData {
    /// Builds the baseline inputs from a problem. `group_by_block` controls
    /// whether the dense-shifting grouping is materialized.
    pub fn build(problem: &Problem, group_by_block: bool) -> BaselineData {
        let layout = &problem.layout;
        let p = layout.nodes();
        let mut local_triplets: Vec<Vec<Triplet>> = vec![Vec::new(); p];
        let mut triplets_by_block: Vec<Vec<Vec<Triplet>>> =
            if group_by_block { vec![vec![Vec::new(); p]; p] } else { Vec::new() };
        let mut needs: Vec<Vec<bool>> = vec![vec![false; p]; p];
        for (r, c, v) in problem.a.iter() {
            let rank = layout.owner_of_row(r);
            let local = Triplet::new(r - layout.row_range(rank).start, c, v);
            local_triplets[rank].push(local);
            let owner = layout.owner_of_col(c);
            needs[rank][owner] = true;
            if group_by_block {
                triplets_by_block[rank][owner].push(local);
            }
        }
        let b_blocks = (0..p).map(|rank| Arc::new(problem.b_block(rank))).collect();
        let needed_blocks = needs
            .into_iter()
            .enumerate()
            .map(|(rank, row)| {
                row.iter()
                    .enumerate()
                    .filter_map(|(owner, &needed)| (needed && owner != rank).then_some(owner))
                    .collect()
            })
            .collect();
        BaselineData { local_triplets, triplets_by_block, b_blocks, needed_blocks }
    }
}

/// Charges the synchronous-compute cost of `nnz` nonzeros to the sync lane.
/// At full observability the span carries `nnz * k` as its element count,
/// so the baselines' kernel events size themselves like Two-Face's.
pub(crate) fn charge_local_compute(
    ctx: &mut RankCtx,
    nnz: usize,
    opts: &ExecOpts,
    local_rows: usize,
) {
    if nnz == 0 {
        return;
    }
    let panels = local_rows.div_ceil(opts.panel_height).min(nnz);
    let cost = ctx.cost().sync_compute_cost(nnz, opts.k, panels);
    ctx.advance_span(Lane::Sync, cost, PhaseClass::SyncComp, (nnz * opts.k) as u64, None);
}

/// The Allgather baseline: fully replicate `B`, then compute locally.
pub(crate) fn allgather_rank(
    ctx: &mut RankCtx,
    data: &BaselineData,
    problem: &Problem,
    opts: &ExecOpts,
) -> Result<Vec<f64>, NetError> {
    let rank = ctx.rank();
    let layout = &problem.layout;
    let all = ctx.allgather(Arc::clone(&data.b_blocks[rank]))?;
    let mut rows_src = BlockRows::new(layout, opts.k);
    for (owner, buf) in all.into_iter().enumerate() {
        rows_src.add_block(layout.col_range(owner), buf);
    }
    let local_rows = layout.row_range(rank).len();
    let mut c_local = vec![0.0; local_rows * opts.k];
    let entries = &data.local_triplets[rank];
    charge_local_compute(ctx, entries.len(), opts, local_rows);
    if opts.compute {
        par_sync_panels(&Pool::new(opts.workers), entries, &rows_src, &mut c_local, opts.k);
    }
    Ok(c_local)
}

/// The Async Coarse baseline: one-sided `MPI_Get` of every whole block the
/// rank needs, then compute locally.
pub(crate) fn async_coarse_rank(
    ctx: &mut RankCtx,
    data: &BaselineData,
    problem: &Problem,
    opts: &ExecOpts,
) -> Result<Vec<f64>, NetError> {
    let rank = ctx.rank();
    let layout = &problem.layout;
    let win = ctx.create_window(Arc::clone(&data.b_blocks[rank]))?;
    let mut rows_src = BlockRows::new(layout, opts.k);
    rows_src.add_block(layout.col_range(rank), Arc::clone(&data.b_blocks[rank]));
    for &owner in &data.needed_blocks[rank] {
        let cols = layout.col_range(owner);
        let buf =
            ctx.win_get(win, owner, 0..cols.len() * opts.k, Lane::Sync, PhaseClass::AsyncComm)?;
        rows_src.add_block(cols, buf);
    }
    let local_rows = layout.row_range(rank).len();
    let mut c_local = vec![0.0; local_rows * opts.k];
    let entries = &data.local_triplets[rank];
    charge_local_compute(ctx, entries.len(), opts, local_rows);
    if opts.compute {
        par_sync_panels(&Pool::new(opts.workers), entries, &rows_src, &mut c_local, opts.k);
    }
    Ok(c_local)
}

/// The Dense Shifting baseline with replication factor `c` (Bharadwaj et
/// al.): pipeline-replicate `c` blocks, then alternate compute steps with
/// cyclic super-block shifts of distance `c`.
pub(crate) fn dense_shifting_rank(
    ctx: &mut RankCtx,
    data: &BaselineData,
    problem: &Problem,
    replication: usize,
    opts: &ExecOpts,
) -> Result<Vec<f64>, NetError> {
    let rank = ctx.rank();
    let p = ctx.ranks();
    let layout = &problem.layout;
    let c = replication;
    debug_assert!(c >= 1 && c <= p, "runner validates replication factor");

    // Resident block ids follow a closed-form schedule: at step `t`, rank
    // `r` holds blocks `(r - t*c - j) mod p` for `j in 0..c`. Both shift
    // partners follow it, so the receiver always knows how to split the
    // incoming super-block.
    let ids_at = |t: usize| -> Vec<usize> {
        (0..c)
            .map(|j| {
                let offset = (t * c + j) % p;
                (rank + p - offset) % p
            })
            .collect()
    };

    // Replication phase: (c - 1) unit shifts pipe each block one hop, after
    // which rank r holds blocks {r, r-1, ..., r-c+1} — replication factor c.
    let mut resident: Vec<Payload> = vec![Payload::from(Arc::clone(&data.b_blocks[rank]))];
    let mut passing = Payload::from(Arc::clone(&data.b_blocks[rank]));
    for _ in 1..c {
        passing = ctx.shift_ring(passing, 1)?;
        resident.push(passing.clone());
    }

    let local_rows = layout.row_range(rank).len();
    let mut c_local = vec![0.0; local_rows * opts.k];
    let pool = Pool::new(opts.workers);
    let mut processed = vec![false; p];
    let steps = p.div_ceil(c);
    for step in 0..steps {
        let ids = ids_at(step);
        let mut rows_src = BlockRows::new(layout, opts.k);
        for (id, buf) in ids.iter().zip(&resident) {
            rows_src.add_block(layout.col_range(*id), buf.clone());
        }
        for &id in &ids {
            if processed[id] {
                continue; // c ∤ p makes the last step wrap around
            }
            processed[id] = true;
            let entries = &data.triplets_by_block[rank][id];
            charge_local_compute(ctx, entries.len(), opts, local_rows);
            if opts.compute && !entries.is_empty() {
                par_sync_panels(&pool, entries, &rows_src, &mut c_local, opts.k);
            }
        }
        if step + 1 < steps {
            // Ship the whole resident group `c` ranks ahead in one
            // Sendrecv, as the real implementation does.
            let concat: Vec<f64> = resident.iter().flat_map(|b| b.iter().copied()).collect();
            let received = ctx.shift_ring(concat, c)?;
            // Split by the next step's block lengths — zero-copy views into
            // the received super-block.
            let next_ids = ids_at(step + 1);
            let mut offset = 0usize;
            resident.clear();
            for &id in &next_ids {
                let len = layout.col_range(id).len() * opts.k;
                resident.push(received.subslice(offset..offset + len));
                offset += len;
            }
            debug_assert_eq!(offset, received.len());
        }
    }
    Ok(c_local)
}

/// Staged Allgather baseline.
pub(crate) struct AllgatherAlgo<'a> {
    pub data: BaselineData,
    pub problem: &'a Problem,
    pub exec: ExecOpts,
}

impl SpmmAlgorithm for AllgatherAlgo<'_> {
    fn memory_extra(&self, rank: usize) -> usize {
        // Every block but the rank's own becomes resident.
        let layout = &self.problem.layout;
        (layout.cols() - layout.col_range(rank).len()) * self.exec.k * SCALAR_BYTES
    }

    fn execute(&self, ctx: &mut RankCtx) -> Result<Vec<f64>, RankError> {
        Ok(allgather_rank(ctx, &self.data, self.problem, &self.exec)?)
    }
}

/// Staged Async Coarse baseline.
pub(crate) struct AsyncCoarseAlgo<'a> {
    pub data: BaselineData,
    pub problem: &'a Problem,
    pub exec: ExecOpts,
}

impl SpmmAlgorithm for AsyncCoarseAlgo<'_> {
    fn memory_extra(&self, rank: usize) -> usize {
        let layout = &self.problem.layout;
        let row_bytes = self.exec.k * SCALAR_BYTES;
        self.data.needed_blocks[rank]
            .iter()
            .map(|&owner| layout.col_range(owner).len() * row_bytes)
            .sum()
    }

    fn execute(&self, ctx: &mut RankCtx) -> Result<Vec<f64>, RankError> {
        Ok(async_coarse_rank(ctx, &self.data, self.problem, &self.exec)?)
    }
}

/// Staged Dense Shifting baseline (replication factor validated by the
/// runner).
pub(crate) struct DenseShiftingAlgo<'a> {
    pub data: BaselineData,
    pub problem: &'a Problem,
    pub exec: ExecOpts,
    pub replication: usize,
}

impl SpmmAlgorithm for DenseShiftingAlgo<'_> {
    fn memory_extra(&self, rank: usize) -> usize {
        // c resident blocks plus the in-flight super-block.
        let layout = &self.problem.layout;
        let p = layout.nodes();
        let max_block = (0..p).map(|r| layout.col_range(r).len()).max().unwrap_or(0);
        let _ = rank;
        2 * self.replication * max_block * self.exec.k * SCALAR_BYTES
    }

    fn execute(&self, ctx: &mut RankCtx) -> Result<Vec<f64>, RankError> {
        Ok(dense_shifting_rank(ctx, &self.data, self.problem, self.replication, &self.exec)?)
    }
}
