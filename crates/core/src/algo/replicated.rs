//! The 1.5D dense-replication algorithm (Bharadwaj et al.'s
//! communication-avoiding family, adapted to 1D row partitions).
//!
//! Ranks form **teams** of `c` consecutive ranks (the last team may be
//! shorter when `c ∤ p`). Within team `i`, member `rank - i·c` sits at
//! **layer** `l`. The run has three phases:
//!
//! 1. **Stage** — each `B` block `b` is multicast by its owner to the
//!    *layer set* of residue `b mod c`: every rank whose team assigns it
//!    that residue. After staging, a rank holds roughly `1/c` of `B`
//!    (`c`-fold less than Allgather), at the price of `≈ p/c` multicasts of
//!    fan-out `≈ p/c`.
//! 2. **Compute** — a rank computes *partial* `C` blocks for **every**
//!    member of its team, restricted to the blocks it holds. Each nonzero
//!    of the team is covered by exactly one member (blocks partition by
//!    residue), so no FLOP is replicated.
//! 3. **Reduce** — each member collects the other `c - 1` partials for its
//!    rows via pairwise multicasts and sums them in ascending-source order,
//!    which keeps the output bit-identical for any worker count.
//!
//! Short final teams assign each member the residues congruent to its layer
//! modulo the team size, so every block residue stays covered without
//! requiring `c | p`.

use crate::algo::collective::{charge_local_compute, BaselineData};
use crate::algo::SpmmAlgorithm;
use crate::error::RankError;
use crate::kernels::{par_sync_panels, BlockRows};
use crate::pool::Pool;
use crate::runner::{ExecOpts, Problem};
use std::sync::Arc;
use twoface_matrix::SCALAR_BYTES;
use twoface_net::{NetError, Payload, RankCtx};

/// The team geometry of one rank under depth `c`: its team's rank range and
/// its layer within the team.
fn team_of(rank: usize, p: usize, c: usize) -> (std::ops::Range<usize>, usize) {
    let start = (rank / c) * c;
    let end = (start + c).min(p);
    (start..end, rank - start)
}

/// Whether `rank` belongs to the layer set of block residue `q`: its team
/// assigns it every residue congruent to its layer modulo the team size.
fn covers_residue(rank: usize, p: usize, c: usize, q: usize) -> bool {
    let (team, layer) = team_of(rank, p, c);
    q % team.len() == layer
}

/// The ascending layer set of block residue `q` — the multicast group that
/// stages every block `b` with `b mod c == q`.
fn layer_set(p: usize, c: usize, q: usize) -> Vec<usize> {
    (0..p).filter(|&r| covers_residue(r, p, c, q)).collect()
}

/// Staged 1.5D execution.
pub(crate) struct OneFiveDAlgo<'a> {
    pub data: BaselineData,
    pub problem: &'a Problem,
    pub exec: ExecOpts,
    pub replication: usize,
}

impl SpmmAlgorithm for OneFiveDAlgo<'_> {
    fn memory_extra(&self, rank: usize) -> usize {
        let layout = &self.problem.layout;
        let p = layout.nodes();
        let c = self.replication;
        let row_bytes = self.exec.k * SCALAR_BYTES;
        // Resident staged blocks (everything in this rank's residues)...
        let blocks: usize = (0..p)
            .filter(|&b| covers_residue(rank, p, c, b % c))
            .map(|b| layout.col_range(b).len())
            .sum();
        // ...plus a partial-C accumulator per team member and one in-flight
        // received partial.
        let (team, _) = team_of(rank, p, c);
        let partials: usize = team.clone().map(|d| layout.row_range(d).len()).sum();
        let in_flight = team.map(|d| layout.row_range(d).len()).max().unwrap_or(0);
        (blocks + partials + in_flight) * row_bytes
    }

    fn execute(&self, ctx: &mut RankCtx) -> Result<Vec<f64>, RankError> {
        Ok(one_five_d_rank(ctx, &self.data, self.problem, self.replication, &self.exec)?)
    }
}

/// The per-rank 1.5D body.
pub(crate) fn one_five_d_rank(
    ctx: &mut RankCtx,
    data: &BaselineData,
    problem: &Problem,
    c: usize,
    opts: &ExecOpts,
) -> Result<Vec<f64>, NetError> {
    let rank = ctx.rank();
    let p = ctx.ranks();
    let layout = &problem.layout;
    let k = opts.k;
    debug_assert!(c >= 1 && c <= p, "runner validates replication factor");
    let (team, _) = team_of(rank, p, c);
    let team: Vec<usize> = team.collect();

    // --- Stage: canonical ascending block order keeps every layer set's
    // collective sequence consistent. Block b's owner is rank b, which
    // always covers residue b mod c itself, so the root is in the group.
    let mut rows_src = BlockRows::new(layout, k);
    for b in 0..p {
        if !covers_residue(rank, p, c, b % c) {
            continue;
        }
        let group = layer_set(p, c, b % c);
        debug_assert!(group.contains(&b), "owners cover their own block's residue");
        let payload = (b == rank).then(|| Payload::from(Arc::clone(&data.b_blocks[rank])));
        let buf = ctx.multicast(b as u64, b, &group, payload)?;
        if b == rank {
            rows_src.add_block(layout.col_range(b), Arc::clone(&data.b_blocks[rank]));
        } else {
            rows_src.add_block(layout.col_range(b), buf);
        }
    }

    // --- Compute: one partial-C block per team member, over the blocks this
    // rank staged. Per-(member, block) kernels keep the accumulation order
    // deterministic for any worker count.
    let pool = Pool::new(opts.workers);
    let mut partials: Vec<Vec<f64>> = Vec::with_capacity(team.len());
    for &d in &team {
        let d_rows = layout.row_range(d).len();
        let mut part = vec![0.0; d_rows * k];
        for b in 0..p {
            if !covers_residue(rank, p, c, b % c) {
                continue;
            }
            let entries = &data.triplets_by_block[d][b];
            if entries.is_empty() {
                continue;
            }
            charge_local_compute(ctx, entries.len(), opts, d_rows);
            if opts.compute {
                par_sync_panels(&pool, entries, &rows_src, &mut part, k);
            }
        }
        partials.push(part);
    }

    // --- Reduce: destination-major pairwise exchange, summed in ascending
    // source order. Tags offset past the stage range; unique per (d, src).
    let my_rows = layout.row_range(rank).len();
    let mut c_local = vec![0.0; my_rows * k];
    for (di, &d) in team.iter().enumerate() {
        for (si, &src) in team.iter().enumerate() {
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
            let tag = (p + d * c + si) as u64;
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
    fn full_teams_assign_one_residue_per_layer() {
        // p = 8, c = 4: two full teams; residue q goes to layer q exactly.
        for q in 0..4 {
            assert_eq!(layer_set(8, 4, q), vec![q, q + 4]);
        }
    }

    #[test]
    fn short_final_team_still_covers_every_residue() {
        // p = 5, c = 4: team {4} has one member covering all four residues.
        for q in 0..4 {
            let set = layer_set(5, 4, q);
            assert!(set.contains(&4), "rank 4 must cover residue {q}");
            assert!(set.contains(&q), "owner layer {q} covers its own residue");
        }
        // p = 6, c = 4: team {4, 5} splits residues by parity.
        assert_eq!(layer_set(6, 4, 0), vec![0, 4]);
        assert_eq!(layer_set(6, 4, 1), vec![1, 5]);
        assert_eq!(layer_set(6, 4, 2), vec![2, 4]);
        assert_eq!(layer_set(6, 4, 3), vec![3, 5]);
    }

    #[test]
    fn every_block_is_computed_exactly_once_per_destination() {
        // For each (team, block) pair exactly one team member covers it.
        for (p, c) in [(1, 1), (4, 2), (5, 4), (6, 4), (7, 3), (8, 8), (9, 2)] {
            for d in 0..p {
                let (team, _) = team_of(d, p, c);
                for b in 0..p {
                    let holders: Vec<usize> =
                        team.clone().filter(|&r| covers_residue(r, p, c, b % c)).collect();
                    assert_eq!(holders.len(), 1, "p={p} c={c} d={d} b={b}: {holders:?}");
                }
            }
        }
    }
}
