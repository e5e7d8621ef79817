//! Cost-model auto-selection: pick the cheapest predicted algorithm for a
//! (matrix, cluster shape, `K`) point before anything is staged.
//!
//! [`Algorithm::Auto`] resolves through [`resolve_auto`]: one sparsity scan
//! produces the [`SpmmStats`] summary, every candidate gets a closed-form
//! prediction from the calibrated [`CostModel`], memory-infeasible
//! candidates are dropped (mirroring the runner's own feasibility gate, so
//! Auto never selects a run the runner would reject), and the argmin wins.
//! Ties break toward the earliest candidate in [`auto_candidates`] order,
//! which makes the choice fully deterministic — it depends only on the
//! matrix structure, the layout, `K`, and the model coefficients, never on
//! worker counts or timing.

use crate::algo::Algorithm;
use crate::coalesce::coalesce_rows;
use crate::config::TwoFaceConfig;
use crate::error::RunError;
use crate::runner::NNZ_BYTES;
use twoface_matrix::{CooMatrix, SCALAR_BYTES};
use twoface_net::{CostModel, Grid2d, SpmmStats};
use twoface_partition::OneDimLayout;

/// The outcome of resolving [`Algorithm::Auto`] for one problem.
#[derive(Debug, Clone)]
pub struct AutoChoice {
    /// The selected concrete algorithm (never `Auto` itself).
    pub algorithm: Algorithm,
    /// The sparsity summary the predictions were computed from.
    pub stats: SpmmStats,
    /// Predicted seconds for every candidate, in [`auto_candidates`] order
    /// (including memory-infeasible ones, for diagnostics).
    pub predictions: Vec<(Algorithm, f64)>,
    /// The candidates that pass the closed-form memory-feasibility gate.
    pub feasible: Vec<Algorithm>,
}

/// The candidate lineup Auto scores, in canonical (tie-breaking) order.
///
/// Replication factors 2/4/8 are offered for the replicating algorithms
/// when they fit the rank count; `p = 1` degenerates to the
/// non-replicating candidates only.
pub fn auto_candidates(p: usize) -> Vec<Algorithm> {
    let mut c = vec![Algorithm::Allgather, Algorithm::AsyncCoarse, Algorithm::AsyncFine];
    for r in [2usize, 4, 8] {
        if r <= p {
            c.push(Algorithm::DenseShifting { replication: r });
        }
    }
    for r in [2usize, 4, 8] {
        if r <= p {
            c.push(Algorithm::OneFiveD { replication: r });
        }
    }
    c.push(Algorithm::Summa);
    c.push(Algorithm::Slicing);
    c.push(Algorithm::TwoFace);
    c
}

/// Predicted simulated seconds for one concrete candidate.
///
/// # Panics
///
/// Panics if `algorithm` is [`Algorithm::Auto`] — Auto is what is being
/// resolved, not a candidate.
pub fn predict(algorithm: Algorithm, stats: &SpmmStats, cost: &CostModel) -> f64 {
    match algorithm {
        Algorithm::Allgather => cost.predict_allgather(stats),
        Algorithm::AsyncCoarse => cost.predict_async_coarse(stats),
        Algorithm::AsyncFine => cost.predict_async_fine(stats),
        Algorithm::DenseShifting { replication } => cost.predict_dense_shifting(stats, replication),
        Algorithm::OneFiveD { replication } => cost.predict_one_five_d(stats, replication),
        Algorithm::Summa => {
            let grid = Grid2d::square_ish(stats.p);
            cost.predict_summa(stats, grid.rows(), grid.cols())
        }
        Algorithm::Slicing => cost.predict_slicing(stats),
        Algorithm::TwoFace => cost.predict_two_face(stats),
        Algorithm::Auto => unreachable!("Auto is not its own candidate"),
    }
}

/// Closed-form worst-rank memory-feasibility gate, mirroring (conservative
/// versions of) the per-algorithm `memory_extra` estimates the runner
/// enforces. The Two-Face family is always feasible: its plan adapts stripe
/// classes to the budget.
fn memory_feasible(algorithm: Algorithm, stats: &SpmmStats, cost: &CostModel) -> bool {
    let row_bytes = stats.k * SCALAR_BYTES;
    let base = stats.max_rank_nnz as usize * NNZ_BYTES
        + stats.max_block_rows * row_bytes
        + stats.max_rank_rows * row_bytes;
    let p = stats.p;
    let extra = match algorithm {
        Algorithm::Allgather => stats.cols * row_bytes,
        Algorithm::AsyncCoarse => stats.max_remote_blocks * stats.max_block_rows * row_bytes,
        Algorithm::DenseShifting { replication } => {
            2 * replication * stats.max_block_rows * row_bytes
        }
        Algorithm::OneFiveD { replication } => {
            let staged = p.div_ceil(replication) * stats.max_block_rows;
            let partials = (replication + 1) * stats.max_rank_rows;
            (staged + partials) * row_bytes
        }
        Algorithm::Summa => {
            let grid = Grid2d::square_ish(p);
            let staged = p.div_ceil(grid.cols()) * stats.max_block_rows;
            let partials = (grid.cols() + 1) * stats.max_rank_rows;
            (staged + partials) * row_bytes
        }
        Algorithm::Slicing => 2 * stats.max_remote_rows as usize * row_bytes,
        Algorithm::TwoFace | Algorithm::AsyncFine => return true,
        Algorithm::Auto => unreachable!("Auto is not its own candidate"),
    };
    base + extra <= cost.memory_per_node
}

/// One scan of the sparsity structure into the model's [`SpmmStats`].
///
/// Only the structure of `A`, the layout, `K`, and the coalescing knob
/// matter — the values of `A` and the contents of `B` never do, so the
/// serving layer can resolve Auto before the dense operand exists.
///
/// # Errors
///
/// [`RunError::InvalidConfig`] when `config` has a zero field
/// ([`TwoFaceConfig::check`]).
pub fn spmm_stats(
    a: &CooMatrix,
    layout: &OneDimLayout,
    k: usize,
    config: &TwoFaceConfig,
) -> Result<SpmmStats, RunError> {
    config.check()?;
    let p = layout.nodes();
    let cols = layout.cols();
    let words = p.div_ceil(64);

    // Pass 1: per-column reader bitsets and per-rank nonzero counts.
    let mut readers = vec![0u64; cols * words];
    let mut nnz_rank = vec![0u64; p];
    for (r, c, _) in a.iter() {
        let rank = layout.owner_of_row(r);
        nnz_rank[rank] += 1;
        readers[c * words + rank / 64] |= 1 << (rank % 64);
    }
    let nnz: u64 = nnz_rank.iter().sum();
    let max_rank_nnz = nnz_rank.iter().copied().max().unwrap_or(0);
    let max_rank_rows = (0..p).map(|r| layout.row_range(r).len()).max().unwrap_or(0);
    let max_block_rows = (0..p).map(|r| layout.col_range(r).len()).max().unwrap_or(0);

    // Ascending column sweep: remote degrees, per-rank remote column lists,
    // and touched stripes (columns arrive stripe-sorted, so one
    // last-stripe-seen slot per rank counts distinct stripes).
    let mut remote_cols: Vec<Vec<usize>> = vec![Vec::new(); p];
    let mut degree = vec![0u32; cols];
    let mut last_stripe = vec![usize::MAX; p];
    let mut touched = vec![0u64; p];
    let mut remote_fetches = 0u64;
    let mut hot_fetches = 0u64;
    let mut hot_rows = 0u64;
    for c in 0..cols {
        let owner = layout.owner_of_col(c);
        let stripe = layout.stripe_of_col(c);
        let mut d = 0u32;
        for w in 0..words {
            let mut bits = readers[c * words + w];
            while bits != 0 {
                let rank = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if last_stripe[rank] != stripe {
                    last_stripe[rank] = stripe;
                    touched[rank] += 1;
                }
                if rank != owner {
                    d += 1;
                    remote_cols[rank].push(c);
                }
            }
        }
        degree[c] = d;
        remote_fetches += d as u64;
        if d >= 2 {
            hot_rows += 1;
            hot_fetches += d as u64;
        }
    }
    let max_touched_stripes = touched.iter().copied().max().unwrap_or(0);

    // Per-rank remote shape: owner segments (blocks), coalesced runs, rows.
    let max_distance = config.max_coalesce_distance(k);
    let mut max_remote_rows = 0u64;
    let mut max_remote_blocks = 0usize;
    let mut max_remote_runs = 0u64;
    for list in &remote_cols {
        max_remote_rows = max_remote_rows.max(list.len() as u64);
        let mut blocks = 0usize;
        let mut runs = 0u64;
        let mut i = 0;
        while i < list.len() {
            let owner = layout.owner_of_col(list[i]);
            let base = layout.col_range(owner).start;
            let mut j = i;
            while j < list.len() && layout.owner_of_col(list[j]) == owner {
                j += 1;
            }
            blocks += 1;
            let rebased: Vec<usize> = list[i..j].iter().map(|&c| c - base).collect();
            runs += coalesce_rows(&rebased, max_distance).0.len() as u64;
            i = j;
        }
        max_remote_blocks = max_remote_blocks.max(blocks);
        max_remote_runs = max_remote_runs.max(runs);
    }

    // Stripe pass: a stripe is sync-classified when it holds at least one
    // multicast-worthy (degree ≥ 2) column — the classifier then multicasts
    // the whole stripe to every remote reader, so the sync lane's volume is
    // stripe-granular. Per sync stripe: its remote reader set (union of the
    // column reader bitsets minus the owner) sizes the multicast group. The
    // volume term is the *chain total* over all sync stripes, not the worst
    // rank's personal share: every multicast is a meet of its whole group,
    // overlapping groups chain transitively, and all ranks walk the stripes
    // in the same canonical order, so the critical rank's sync clock pays
    // the full serialized chain. (Charging only per-rank participation
    // undercounted the host-clustered arabic/webcrawl class — where reader
    // groups overlap heavily but each rank personally receives few stripes
    // — by ~2x against the executor's measured sync lane.)
    let mut sync_chain_cols = 0u64;
    let mut sync_chain_stripes = 0u64;
    let mut weighted_readers = 0.0f64;
    let mut stripe_readers = vec![0u64; words];
    for s in 0..layout.num_stripes() {
        let range = layout.stripe_cols(s);
        let owner = layout.stripe_owner(s);
        let mut hot = false;
        stripe_readers.iter_mut().for_each(|w| *w = 0);
        for c in range.clone() {
            hot |= degree[c] >= 2;
            for w in 0..words {
                stripe_readers[w] |= readers[c * words + w];
            }
        }
        stripe_readers[owner / 64] &= !(1 << (owner % 64));
        let remote: u32 = stripe_readers.iter().map(|w| w.count_ones()).sum();
        if !hot || remote == 0 {
            continue;
        }
        let width = range.len() as u64;
        sync_chain_cols += width;
        sync_chain_stripes += 1;
        weighted_readers += width as f64 * remote as f64;
    }
    let mean_sync_group_readers =
        if sync_chain_cols == 0 { 0.0 } else { weighted_readers / sync_chain_cols as f64 };

    // Pass 2: a nonzero is "sync" when its B row is local to its reader or
    // multicast-worthy (≥ 2 remote readers) — the traffic Two-Face's
    // classifier steers to the synchronous lane.
    let mut sync_nnz = 0u64;
    for (r, c, _) in a.iter() {
        let rank = layout.owner_of_row(r);
        if rank == layout.owner_of_col(c) || degree[c] >= 2 {
            sync_nnz += 1;
        }
    }
    let sync_nnz_fraction = if nnz == 0 { 0.0 } else { sync_nnz as f64 / nnz as f64 };

    Ok(SpmmStats {
        p,
        rows: layout.rows(),
        cols,
        k,
        nnz,
        max_rank_nnz,
        max_rank_rows,
        max_block_rows,
        max_remote_blocks,
        max_remote_rows,
        max_remote_runs,
        max_touched_stripes,
        remote_fetches,
        hot_fetches,
        hot_rows,
        sync_nnz_fraction,
        sync_chain_cols,
        sync_chain_stripes,
        mean_sync_group_readers,
        panel_height: config.row_panel_height,
    })
}

/// Resolves [`Algorithm::Auto`] for one problem: scan, score, gate, argmin.
///
/// Never panics on degenerate inputs (`p = 1`, `K = 1`, empty matrices);
/// falls back to [`Algorithm::TwoFace`] in the (theoretical) case of no
/// feasible candidate.
///
/// # Errors
///
/// [`RunError::InvalidConfig`] when `config` has a zero field, as for
/// [`spmm_stats`].
pub fn resolve_auto(
    a: &CooMatrix,
    layout: &OneDimLayout,
    k: usize,
    config: &TwoFaceConfig,
    cost: &CostModel,
) -> Result<AutoChoice, RunError> {
    let stats = spmm_stats(a, layout, k, config)?;
    let candidates = auto_candidates(layout.nodes());
    let predictions: Vec<(Algorithm, f64)> =
        candidates.iter().map(|&alg| (alg, predict(alg, &stats, cost))).collect();
    let feasible: Vec<Algorithm> =
        candidates.iter().copied().filter(|&alg| memory_feasible(alg, &stats, cost)).collect();
    let mut best: Option<(Algorithm, f64)> = None;
    for &(alg, t) in &predictions {
        if !feasible.contains(&alg) {
            continue;
        }
        match best {
            Some((_, bt)) if t >= bt => {}
            _ => best = Some((alg, t)),
        }
    }
    let algorithm = best.map_or(Algorithm::TwoFace, |(alg, _)| alg);
    Ok(AutoChoice { algorithm, stats, predictions, feasible })
}

/// The closed-form predicted execution time, in simulated seconds, of one
/// `A × B` run of `algorithm` — the latency estimate a deadline-aware
/// scheduler compares against an SLO before the dense operand even exists.
///
/// Concrete algorithms evaluate their own [`predict`] model directly;
/// [`Algorithm::Auto`] resolves first (via [`resolve_auto`]) and predicts
/// its winner. The estimate is deterministic: it depends only on the matrix
/// structure, layout, `k`, config, and cost model.
///
/// # Errors
///
/// [`RunError::InvalidConfig`] when `config` has a zero field, as for
/// [`spmm_stats`].
pub fn predict_latency(
    a: &CooMatrix,
    layout: &OneDimLayout,
    k: usize,
    config: &TwoFaceConfig,
    cost: &CostModel,
    algorithm: Algorithm,
) -> Result<f64, RunError> {
    Ok(match algorithm {
        Algorithm::Auto => {
            let choice = resolve_auto(a, layout, k, config, cost)?;
            choice
                .predictions
                .iter()
                .find(|(alg, _)| *alg == choice.algorithm)
                .map_or(0.0, |&(_, t)| t)
        }
        concrete => predict(concrete, &spmm_stats(a, layout, k, config)?, cost),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use twoface_matrix::gen::erdos_renyi;
    use twoface_matrix::Triplet;

    fn layout(rows: usize, cols: usize, p: usize) -> OneDimLayout {
        OneDimLayout::new(rows, cols, p, 32)
    }

    #[test]
    fn candidates_are_unique_and_concrete() {
        for p in [1usize, 2, 5, 8, 32] {
            let c = auto_candidates(p);
            for (i, a) in c.iter().enumerate() {
                assert_ne!(*a, Algorithm::Auto);
                assert!(!c[..i].contains(a), "p={p}: duplicate {a:?}");
            }
            assert!(c.contains(&Algorithm::TwoFace));
        }
    }

    #[test]
    fn stats_empty_matrix_is_all_zero() {
        let a = CooMatrix::from_triplets(64, 64, Vec::<Triplet>::new()).unwrap();
        let s = spmm_stats(&a, &layout(64, 64, 4), 8, &TwoFaceConfig::default()).unwrap();
        assert_eq!(s.nnz, 0);
        assert_eq!(s.remote_fetches, 0);
        assert_eq!(s.sync_nnz_fraction, 0.0);
        assert_eq!(s.max_touched_stripes, 0);
    }

    #[test]
    fn stats_count_remote_reads_once_per_rank() {
        // 4 ranks over 8 rows/cols: block size 2. Rank 0 (rows 0-1) reads
        // cols {0, 4, 5}: col 0 local, cols 4 and 5 remote (rank 2).
        let a = Arc::new(
            CooMatrix::from_triplets(
                8,
                8,
                vec![(0, 0, 1.0), (0, 4, 1.0), (1, 4, 1.0), (1, 5, 1.0), (6, 4, 1.0)],
            )
            .unwrap(),
        );
        let s = spmm_stats(&a, &layout(8, 8, 4), 8, &TwoFaceConfig::default()).unwrap();
        assert_eq!(s.nnz, 5);
        // Rank 0's remote cols {4, 5}; rank 3 (row 6) reads col 4 locally
        // (col 4 belongs to rank 2; row 6 belongs to rank 3 — remote too).
        // Degrees: col 4 read by ranks {0, 3}, owner 2 → d = 2 (hot);
        // col 5 read by rank 0, owner 2 → d = 1; col 0 local → d = 0.
        assert_eq!(s.remote_fetches, 3);
        assert_eq!(s.hot_rows, 1);
        assert_eq!(s.hot_fetches, 2);
        // Sync nonzeros: (0,0) local, plus the three touching hot col 4.
        assert!((s.sync_nnz_fraction - 4.0 / 5.0).abs() < 1e-12);
        assert_eq!(s.max_remote_rows, 2); // rank 0
        assert_eq!(s.max_remote_blocks, 1);
        // Stripe pass: rank 2's block is one stripe (cols 4-5, width 2),
        // sync-classified via hot col 4, remote readers {0, 3}; no other
        // stripe has a hot column.
        assert_eq!(s.sync_chain_cols, 2);
        assert_eq!(s.sync_chain_stripes, 1);
        assert!((s.mean_sync_group_readers - 2.0).abs() < 1e-12);
    }

    #[test]
    fn resolve_is_argmin_over_feasible() {
        let a = Arc::new(erdos_renyi(128, 128, 1200, 11));
        let lay = layout(128, 128, 8);
        let cfg = TwoFaceConfig::default();
        let cost = CostModel::delta();
        let choice = resolve_auto(&a, &lay, 32, &cfg, &cost).unwrap();
        assert_ne!(choice.algorithm, Algorithm::Auto);
        assert!(choice.feasible.contains(&choice.algorithm));
        let winner = choice
            .predictions
            .iter()
            .find(|(alg, _)| *alg == choice.algorithm)
            .expect("winner is scored")
            .1;
        for (alg, t) in &choice.predictions {
            if choice.feasible.contains(alg) {
                assert!(winner <= *t, "{alg:?} beats the winner");
            }
        }
    }

    #[test]
    fn resolve_never_panics_on_degenerate_inputs() {
        let cfg = TwoFaceConfig::default();
        let cost = CostModel::delta();
        // Empty matrix.
        let empty = CooMatrix::from_triplets(16, 16, Vec::<Triplet>::new()).unwrap();
        let c = resolve_auto(&empty, &layout(16, 16, 4), 8, &cfg, &cost).unwrap();
        assert_ne!(c.algorithm, Algorithm::Auto);
        // p = 1.
        let a = Arc::new(erdos_renyi(32, 32, 100, 3));
        let c = resolve_auto(&a, &layout(32, 32, 1), 8, &cfg, &cost).unwrap();
        assert_ne!(c.algorithm, Algorithm::Auto);
        // K = 1.
        let c = resolve_auto(&a, &layout(32, 32, 4), 1, &cfg, &cost).unwrap();
        assert_ne!(c.algorithm, Algorithm::Auto);
    }

    #[test]
    fn resolve_is_deterministic() {
        let a = Arc::new(erdos_renyi(256, 256, 4000, 7));
        let lay = layout(256, 256, 8);
        let cfg = TwoFaceConfig::default();
        let cost = CostModel::delta();
        let first = resolve_auto(&a, &lay, 16, &cfg, &cost).unwrap();
        for _ in 0..3 {
            let again = resolve_auto(&a, &lay, 16, &cfg, &cost).unwrap();
            assert_eq!(first.algorithm, again.algorithm);
            assert_eq!(first.predictions, again.predictions);
        }
    }
}
