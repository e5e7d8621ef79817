//! The analytic communication / computation cost model.
//!
//! Costs follow the structure of the paper's preprocessing model (§4.2) and
//! its calibrated coefficients (Table 3): an `α` latency per operation plus a
//! `β` cost per transferred *element* (one `f64`), with separate coefficients
//! for coarse-grained synchronous collectives and fine-grained one-sided
//! asynchronous transfers, and `γ`/`κ` terms for computation. Two extensions
//! cover effects the paper observes but does not fold into its six
//! coefficients:
//!
//! * a **multicast fan-out penalty** that makes broadcasts to many
//!   destinations slower — the effect the paper measures in §7.2, where
//!   twitter's and friendster's 35–44-recipient multicasts cripple Two-Face's
//!   synchronous path at 64 nodes;
//! * a **per-run** charge for one-sided indexed gets, so the row-coalescing
//!   optimization of §5.2.3 has a measurable benefit.

use serde::{Deserialize, Serialize};

/// Shape statistics of one distributed SpMM problem, distilled to the plain
/// numbers the per-algorithm cost predictions consume.
///
/// The caller (the core crate's auto-selector) computes these in one pass
/// over the sparse matrix; the model itself never sees matrix data. All
/// "remote" quantities exclude a rank's own `B` block, and all `max_*`
/// quantities are taken over ranks — the predictions estimate the critical
/// path, i.e. the worst rank's lane time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpmmStats {
    /// Number of ranks.
    pub p: usize,
    /// Rows of `A` (and `C`).
    pub rows: usize,
    /// Columns of `A` (rows of `B`).
    pub cols: usize,
    /// Dense columns of `B` (and `C`).
    pub k: usize,
    /// Total nonzeros of `A`.
    pub nnz: u64,
    /// Nonzeros of the heaviest rank's row block.
    pub max_rank_nnz: u64,
    /// Rows of the tallest rank row block.
    pub max_rank_rows: usize,
    /// Rows of the widest `B` block.
    pub max_block_rows: usize,
    /// Most remote `B` blocks any one rank touches.
    pub max_remote_blocks: usize,
    /// Most distinct remote `B` rows any one rank needs.
    pub max_remote_rows: u64,
    /// The same rows after coalescing (at the configured max coalesce
    /// distance), as contiguous runs — what an indexed rget pays `α_run`
    /// per.
    pub max_remote_runs: u64,
    /// Most stripes holding at least one nonzero for any one rank (own
    /// blocks included) — the per-stripe `α`/`κ` multiplier of the
    /// stripe-granular asynchronous algorithms.
    pub max_touched_stripes: u64,
    /// Σ over ranks of distinct remote `B` rows needed (each (rank, row)
    /// need counted once).
    pub remote_fetches: u64,
    /// The subset of [`SpmmStats::remote_fetches`] whose row serves ≥ 2
    /// remote ranks — the multicast-worthy traffic Two-Face routes through
    /// its synchronous lane.
    pub hot_fetches: u64,
    /// Distinct remote `B` rows serving ≥ 2 remote ranks.
    pub hot_rows: u64,
    /// Fraction of nonzeros whose `B` row is *not* read by exactly one
    /// remote rank — i.e. rows that are local to their reader or
    /// multicast-worthy. This is the share of compute Two-Face's classifier
    /// steers to the (much cheaper per element) synchronous kernel.
    pub sync_nnz_fraction: f64,
    /// Σ of stripe widths (in `B` rows) over *all* sync-classified stripes
    /// — the serialized multicast-chain volume. A stripe is sync-classified
    /// when it holds at least one multicast-worthy (≥ 2 remote readers)
    /// row: the classifier then multicasts the *whole* stripe, so the
    /// volume is stripe-granular, not row-granular. The chain is global,
    /// not per-rank: each multicast is a meet of its whole group, groups
    /// overlap through shared readers, and every rank walks the stripes in
    /// the same canonical order, so the critical rank's sync lane pays the
    /// full chain — charging only the stripes it personally receives
    /// undercounts host-clustered matrices (the arabic/webcrawl class) by
    /// ~2x.
    pub sync_chain_cols: u64,
    /// Number of sync-classified stripes in the serialized multicast chain
    /// — the per-multicast `α` multiplier of the sync lane.
    pub sync_chain_stripes: u64,
    /// Width-weighted mean count of distinct remote reader ranks over all
    /// sync-classified stripes — the typical multicast fan-out of the sync
    /// lane, which sets the congestion penalty.
    pub mean_sync_group_readers: f64,
    /// Row-panel height of the synchronous kernel.
    pub panel_height: usize,
}

impl SpmmStats {
    /// Average elements of one `B` block (`⌈cols/p⌉ · k`).
    fn block_elements(&self) -> usize {
        self.cols.div_ceil(self.p) * self.k
    }

    /// Average elements of one rank's `C` block (`⌈rows/p⌉ · k`).
    fn c_block_elements(&self) -> usize {
        self.rows.div_ceil(self.p) * self.k
    }

    /// Row panels of the tallest rank block (at least one).
    fn panels_per_rank(&self) -> usize {
        self.max_rank_rows.div_ceil(self.panel_height.max(1)).max(1)
    }
}

/// Cost model coefficients for the simulated machine.
///
/// All `α`/`κ` values are seconds per operation; `β`/`γ` values are seconds
/// per dense element (one `f64`). Defaults are the paper's Table 3 values,
/// which were calibrated on NCSA Delta (AMD EPYC 7763 nodes on a Cray
/// Slingshot fabric).
///
/// # Example
///
/// ```
/// use twoface_net::CostModel;
///
/// let m = CostModel::delta();
/// // Fine-grained transfers cost ~18.5x more per element than collectives.
/// assert!(m.beta_async / m.beta_sync > 10.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// `β_S`: synchronous (collective) transfer cost per element.
    pub beta_sync: f64,
    /// `α_S`: per-operation overhead of a synchronous transfer.
    pub alpha_sync: f64,
    /// `β_A`: asynchronous (one-sided) transfer cost per element, including
    /// per-row software overhead.
    pub beta_async: f64,
    /// `α_A`: per-operation overhead of an asynchronous transfer (one
    /// `MPI_Rget` with an indexed datatype per stripe).
    pub alpha_async: f64,
    /// `γ_A`: asynchronous computation cost per nonzero-times-`K` element
    /// (column-major kernel, one atomic per nonzero, few threads).
    pub gamma_async: f64,
    /// `κ_A`: per-stripe software overhead of asynchronous computation.
    pub kappa_async: f64,
    /// Synchronous computation cost per nonzero-times-`K` element
    /// (row-major row-panel kernel with thread-local buffering across the
    /// node's full synchronous thread pool). Not one of the paper's six
    /// regression coefficients — its model neglects sync compute — but
    /// Figure 10 shows the component, so the simulator charges it.
    pub gamma_sync: f64,
    /// Per-row-panel overhead of synchronous computation.
    pub kappa_sync: f64,
    /// Multicast fan-out penalty coefficient: a broadcast to `d`
    /// destinations costs `β_S · elements · (1 + (multicast_fanout · d)²)`,
    /// with the squared term saturating at [`CostModel::FANOUT_PENALTY_CAP`]
    /// (very large groups degrade to tree-broadcast behaviour rather than
    /// worsening quadratically forever).
    /// This models the §7.2 observation that multicasts with many recipients
    /// (twitter: 35.7, friendster: 43.5 mean recipients at 64 nodes) are
    /// "significantly slower than the cyclic shifting operations", while
    /// small-group multicasts (kmer: 5.7 recipients) stay near the
    /// calibrated `β_S` rate — hence the superlinear form.
    pub multicast_fanout: f64,
    /// Per-coalesced-run overhead of an indexed one-sided get.
    pub alpha_run: f64,
    /// One-sided *bulk* transfer cost per element, used by whole-block
    /// `MPI_Get` operations (Async Coarse).
    pub beta_bulk: f64,
    /// Per-nonzero-per-`log2(nnz)` cost of identifying the unique column
    /// ids of a *row-major* asynchronous stripe at runtime (a sort plus
    /// dedup). Column-major storage gets this for free in a linear scan —
    /// the §7.1 experiment that made the authors keep column-major order.
    pub gamma_identify: f64,
    /// Per-element cost of *bulk* collective payloads — whole `B` blocks
    /// moved by `MPI_Allgather` and `MPI_Sendrecv` shifts. Empirically these
    /// run well above the stripe-multicast bandwidth `β_S` was calibrated
    /// on: Table 5's DS2 times are 7–13x the pure `β_S`-volume cost across
    /// all eight matrices (cache-unfriendly gigabyte payloads, incast).
    pub beta_bulk_collective: f64,
    /// Simulated memory capacity per node, in bytes. Algorithms whose
    /// estimated peak exceeds this fail with an out-of-memory error, which
    /// is how the paper's missing DS8/Allgather data points arise.
    pub memory_per_node: usize,
}

impl CostModel {
    /// Saturation point of the multicast fan-out penalty's squared term.
    pub const FANOUT_PENALTY_CAP: f64 = 20.0;

    /// The model resembling NCSA Delta (Table 3 coefficients).
    ///
    /// `gamma_sync` is not a Table-3 coefficient (the paper's model neglects
    /// synchronous compute); it is set so the synchronous compute share of a
    /// dense-shifting run matches Figure 10's ~10–15%, i.e. an MKL-like
    /// ~25 G-updates/s across the node's 120-thread sync pool.
    /// `memory_per_node` is scaled to match this reproduction's ~1:256-scale
    /// matrices: 320 MiB plays the role of the paper's 256 GiB.
    pub fn delta() -> CostModel {
        CostModel {
            beta_sync: 1.95e-10,
            alpha_sync: 1.36e-6,
            beta_async: 3.61e-9,
            alpha_async: 1.02e-5,
            gamma_async: 2.07e-8,
            kappa_async: 8.72e-9,
            gamma_sync: 4.0e-11,
            kappa_sync: 2.0e-8,
            multicast_fanout: 0.14,
            alpha_run: 2.0e-7,
            gamma_identify: 8.0e-7,
            beta_bulk: 2.0e-9,
            beta_bulk_collective: 1.75e-9,
            memory_per_node: 320 << 20,
        }
    }

    /// The [`CostModel::delta`] machine rescaled for this reproduction's
    /// ~1:256-scale matrices — **the recommended model for the bundled
    /// suite**.
    ///
    /// Per-element costs (`β`, `γ`) are scale-free, but the paper's
    /// per-operation `α`/`κ` overheads were calibrated against stripes
    /// holding hundreds of times more elements than our scaled stripes. A
    /// scaled machine divides every per-operation constant by the matrix
    /// scale factor so the *ratio* of per-operation to per-element cost —
    /// which is what the §4.2 classifier trades off — matches the paper's.
    pub fn delta_scaled() -> CostModel {
        const SCALE: f64 = 256.0;
        let base = CostModel::delta();
        CostModel {
            alpha_sync: base.alpha_sync / SCALE,
            alpha_async: base.alpha_async / SCALE,
            kappa_async: base.kappa_async / SCALE,
            kappa_sync: base.kappa_sync / SCALE,
            // alpha_run stays unscaled: it trades against the cost of one
            // padding *row* (K elements), and K does not shrink with the
            // matrix scale - so the Table-2 coalescing rule keeps its
            // crossover point.
            ..base
        }
    }

    /// A model with zero communication cost, isolating computation in tests.
    pub fn free_network() -> CostModel {
        CostModel {
            beta_sync: 0.0,
            alpha_sync: 0.0,
            beta_async: 0.0,
            alpha_async: 0.0,
            alpha_run: 0.0,
            beta_bulk: 0.0,
            beta_bulk_collective: 0.0,
            multicast_fanout: 0.0,
            ..CostModel::delta()
        }
    }

    /// Cost of a broadcast/multicast of `elements` dense elements from one
    /// root to `destinations` other nodes.
    ///
    /// Zero destinations means no transfer happens and the cost is zero.
    pub fn multicast_cost(&self, elements: usize, destinations: usize) -> f64 {
        if destinations == 0 {
            return 0.0;
        }
        let scaled = self.multicast_fanout * destinations as f64;
        let fanout = 1.0 + (scaled * scaled).min(Self::FANOUT_PENALTY_CAP);
        self.alpha_sync + self.beta_sync * elements as f64 * fanout
    }

    /// Cost of one step of a cyclic shift in which every node simultaneously
    /// sends `elements` elements to its neighbour (`MPI_Sendrecv`), at the
    /// bulk-collective rate.
    pub fn shift_cost(&self, elements: usize) -> f64 {
        self.alpha_sync + self.beta_bulk_collective * elements as f64
    }

    /// Cost of an `MPI_Allgather` in which each of `p` ranks contributes
    /// `elements_per_rank` elements, at the bulk-collective rate.
    ///
    /// Uses the standard ring-algorithm estimate: `(p-1)` steps each moving
    /// one contribution, with a logarithmic latency term.
    pub fn allgather_cost(&self, elements_per_rank: usize, p: usize) -> f64 {
        if p <= 1 {
            return 0.0;
        }
        let steps = (p - 1) as f64;
        self.alpha_sync * (p as f64).log2().max(1.0)
            + self.beta_bulk_collective * elements_per_rank as f64 * steps
    }

    /// Cost of a fine-grained one-sided indexed get transferring `elements`
    /// elements in `runs` coalesced contiguous runs (one `MPI_Rget` with an
    /// `MPI_Type_indexed` datatype, §5.2.3).
    pub fn rget_cost(&self, elements: usize, runs: usize) -> f64 {
        self.alpha_async + self.alpha_run * runs as f64 + self.beta_async * elements as f64
    }

    /// Cost of a bulk one-sided get of `elements` contiguous elements
    /// (`MPI_Get` of a whole block, as Async Coarse issues).
    pub fn bulk_get_cost(&self, elements: usize) -> f64 {
        self.alpha_async + self.beta_bulk * elements as f64
    }

    /// Cost of synchronous (row-panel, buffered) computation over `nnz`
    /// nonzeros with `k` dense columns, organized into `panels` row panels.
    pub fn sync_compute_cost(&self, nnz: usize, k: usize, panels: usize) -> f64 {
        self.gamma_sync * (nnz * k) as f64 + self.kappa_sync * panels as f64
    }

    /// Cost of identifying the distinct columns of a row-major stripe of
    /// `nnz` nonzeros at runtime (§7.1's rejected design).
    pub fn identify_cost(&self, nnz: usize) -> f64 {
        self.gamma_identify * nnz as f64 * (nnz.max(2) as f64).log2()
    }

    /// Cost of asynchronous (column-major, atomic-per-nonzero) computation
    /// over `nnz` nonzeros with `k` dense columns across `stripes` stripes.
    ///
    /// Matches the paper's `Comp_A = γ_A · K · N_A + κ_A · S_A`.
    pub fn async_compute_cost(&self, nnz: usize, k: usize, stripes: usize) -> f64 {
        self.gamma_async * (nnz * k) as f64 + self.kappa_async * stripes as f64
    }

    /// Cost charged for a transiently *failed* one-sided attempt under fault
    /// injection: the full modeled transfer (`base_cost`) plus the retry
    /// backoff. The failed transfer still occupied the link and the issuing
    /// lane for its whole duration (the completion was lost, not the time),
    /// so recovery charges are LogGP-consistent: the transfer portion lands
    /// in the operation's own phase class and only the backoff is attributed
    /// to [`PhaseClass::Recovery`](crate::PhaseClass::Recovery).
    pub fn failed_get_cost(&self, base_cost: f64, backoff_seconds: f64) -> f64 {
        base_cost + backoff_seconds
    }

    // ---- Per-algorithm closed-form predictions -----------------------------
    //
    // Each `predict_*` estimates the critical-path simulated seconds of one
    // whole-strategy run from [`SpmmStats`] alone, composing the calibrated
    // per-operation primitives above exactly the way the corresponding
    // algorithm issues them. They power `Algorithm::Auto` (see the core
    // crate), which argmins over these predictions; DESIGN.md §12 derives
    // the formulas.

    /// Predicted seconds of the Allgather baseline: one bulk allgather of
    /// the widest `B` block, then local row-panel compute over the heaviest
    /// rank's nonzeros.
    pub fn predict_allgather(&self, s: &SpmmStats) -> f64 {
        self.allgather_cost(s.max_block_rows * s.k, s.p)
            + self.sync_compute_cost(s.max_rank_nnz as usize, s.k, s.panels_per_rank())
    }

    /// Predicted seconds of dense shifting with replication factor `c`:
    /// `c - 1` widening replication shifts, `⌈p/c⌉ - 1` super-block shifts
    /// of `c` blocks each, and per-block row-panel compute.
    pub fn predict_dense_shifting(&self, s: &SpmmStats, c: usize) -> f64 {
        let c = c.max(1);
        let block = s.block_elements();
        let mut comm = 0.0;
        for j in 1..c {
            comm += self.shift_cost(j * block);
        }
        comm += (s.p.div_ceil(c).saturating_sub(1)) as f64 * self.shift_cost(c * block);
        comm + self.sync_compute_cost(s.max_rank_nnz as usize, s.k, s.p * s.panels_per_rank())
    }

    /// Predicted seconds of Async Coarse: one bulk get per needed remote
    /// block, then row-panel compute grouped by block.
    pub fn predict_async_coarse(&self, s: &SpmmStats) -> f64 {
        s.max_remote_blocks as f64 * self.bulk_get_cost(s.block_elements())
            + self.sync_compute_cost(
                s.max_rank_nnz as usize,
                s.k,
                (s.max_remote_blocks + 1) * s.panels_per_rank(),
            )
    }

    /// Meet count of the destination-major pairwise reduce both the 1.5D
    /// and SUMMA implementations run over a team of `c` members.
    ///
    /// The exchanges are issued destination-major ((d₀,s₁), (d₀,s₂), …,
    /// (d₁,s₀), …) and every pairwise meet synchronizes both parties'
    /// clocks, so the phase *serializes*: tracking the clock recurrence
    /// with all members entering at the same time gives a completion of
    /// exactly `(c² + 3c − 6)/2` meet-costs (2, 6, 11, 17 for
    /// c = 2, 3, 4, 5) — quadratic, not the `2(c − 1)` a fully overlapped
    /// schedule would cost. Verified against measured simulated seconds of
    /// both implementations.
    fn reduce_chain_meets(c: usize) -> f64 {
        if c < 2 {
            return 0.0;
        }
        ((c * c + 3 * c - 6) / 2) as f64
    }

    /// Predicted seconds of the 1.5D replicated algorithm with replication
    /// factor `c`: every rank receives its `⌈p/c⌉`-block column slice via
    /// layer multicasts (fan-out `⌈p/c⌉ - 1`), computes a column-sliced
    /// share of its team's nonzeros (slicing by column residue smooths row
    /// skew, hence `nnz/p` rather than the max), and exchanges partial `C`
    /// blocks pairwise within its `c`-deep team — a destination-major
    /// serialized chain (see `CostModel::reduce_chain_meets`).
    pub fn predict_one_five_d(&self, s: &SpmmStats, c: usize) -> f64 {
        let c = c.max(1);
        let layer = s.p.div_ceil(c);
        let stage = layer as f64 * self.multicast_cost(s.block_elements(), layer - 1);
        let compute =
            self.sync_compute_cost((s.nnz / s.p as u64) as usize, s.k, c * s.panels_per_rank());
        let reduce = Self::reduce_chain_meets(c) * self.multicast_cost(s.c_block_elements(), 1);
        stage + compute + reduce
    }

    /// Predicted seconds of 2D SUMMA on a `p_r × p_c` grid: every block is
    /// multicast to its column team at fan-out `p_r`, and since each
    /// multicast group contains the block's *owner* (which lives in some
    /// other column team), the ascending stage order chains globally — all
    /// `p` block multicasts serialize, not just the own band's. Compute is
    /// a band-sliced share of the row team's nonzeros, and the row-team
    /// reduce is the same destination-major serialized chain as 1.5D's
    /// (see `CostModel::reduce_chain_meets`).
    pub fn predict_summa(&self, s: &SpmmStats, p_r: usize, p_c: usize) -> f64 {
        let p_c = p_c.max(1);
        let stage = s.p as f64 * self.multicast_cost(s.block_elements(), p_r.max(1));
        let compute =
            self.sync_compute_cost((s.nnz / s.p as u64) as usize, s.k, p_c * s.panels_per_rank());
        let reduce = Self::reduce_chain_meets(p_c) * self.multicast_cost(s.c_block_elements(), 1);
        stage + compute + reduce
    }

    /// Predicted seconds of one-sided slicing: one indexed rget per remote
    /// block fetching exactly the needed rows (coalesced into runs), plus
    /// fully asynchronous per-block compute.
    pub fn predict_slicing(&self, s: &SpmmStats) -> f64 {
        self.alpha_async * s.max_remote_blocks as f64
            + self.alpha_run * s.max_remote_runs as f64
            + self.beta_async * (s.max_remote_rows as usize * s.k) as f64
            + self.async_compute_cost(s.max_rank_nnz as usize, s.k, s.max_remote_blocks + 1)
    }

    /// Predicted seconds of Async Fine (the all-async ablation): stripe
    /// granularity turns the per-operation `α`/`κ` multipliers into the
    /// touched-stripe count.
    pub fn predict_async_fine(&self, s: &SpmmStats) -> f64 {
        self.alpha_async * s.max_touched_stripes as f64
            + self.alpha_run * s.max_remote_runs as f64
            + self.beta_async * (s.max_remote_rows as usize * s.k) as f64
            + self.async_compute_cost(s.max_rank_nnz as usize, s.k, s.max_touched_stripes as usize)
    }

    /// Predicted seconds of Two-Face: the classifier steers multicast-worthy
    /// (hot) rows and their nonzeros to the synchronous lane and
    /// single-reader rows to the asynchronous lane; the run finishes at the
    /// later lane, so the prediction is the max of the two lane estimates.
    pub fn predict_two_face(&self, s: &SpmmStats) -> f64 {
        let hot_share = s.hot_fetches as f64 / (s.remote_fetches.max(1)) as f64;
        // Sync lane: stripe-granular multicasts that serialize into one
        // global chain (each multicast is a meet of its whole group, and
        // overlapping groups chain transitively), so the critical rank's
        // volume is the chain total (`sync_chain_cols`), not the stripes it
        // personally receives; the congestion penalty follows the typical
        // stripe group's remote fan-out.
        let scaled = self.multicast_fanout * s.mean_sync_group_readers;
        let penalty = 1.0 + (scaled * scaled).min(Self::FANOUT_PENALTY_CAP);
        let recv_cols = s.sync_chain_cols as f64 * s.k as f64;
        let sync_nnz_k = s.sync_nnz_fraction * s.max_rank_nnz as f64 * s.k as f64;
        let sync_lane = self.beta_sync * penalty * recv_cols
            + self.alpha_sync * s.sync_chain_stripes as f64
            + self.gamma_sync * sync_nnz_k
            + self.kappa_sync * s.panels_per_rank() as f64;
        // Async lane: the cold remainder of the one-sided traffic and its
        // column-major compute.
        let cold = 1.0 - hot_share;
        let cold_stripes = s.max_touched_stripes as f64 * cold;
        let async_nnz_k = (1.0 - s.sync_nnz_fraction) * s.max_rank_nnz as f64 * s.k as f64;
        let async_lane = self.alpha_async * cold_stripes
            + self.alpha_run * s.max_remote_runs as f64 * cold
            + self.beta_async * s.max_remote_rows as f64 * s.k as f64 * cold
            + self.gamma_async * async_nnz_k
            + self.kappa_async * cold_stripes;
        sync_lane.max(async_lane)
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::delta()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_matches_table3() {
        let m = CostModel::delta();
        assert_eq!(m.beta_sync, 1.95e-10);
        assert_eq!(m.alpha_async, 1.02e-5);
        let ratio = m.beta_async / m.beta_sync;
        assert!((18.0..19.0).contains(&ratio), "β_A/β_S ≈ 18.5, got {ratio}");
    }

    #[test]
    fn multicast_grows_with_fanout() {
        let m = CostModel::delta();
        let small = m.multicast_cost(10_000, 1);
        let large = m.multicast_cost(10_000, 40);
        assert!(large > small);
        assert_eq!(m.multicast_cost(10_000, 0), 0.0);
    }

    #[test]
    fn allgather_scales_with_ranks() {
        let m = CostModel::delta();
        assert_eq!(m.allgather_cost(1000, 1), 0.0);
        assert!(m.allgather_cost(1000, 32) > m.allgather_cost(1000, 8));
    }

    #[test]
    fn coalescing_reduces_rget_cost() {
        let m = CostModel::delta();
        let fragmented = m.rget_cost(1024, 64);
        let coalesced = m.rget_cost(1024, 2);
        assert!(coalesced < fragmented);
    }

    #[test]
    fn async_compute_is_pricier_per_element_than_sync() {
        let m = CostModel::delta();
        let a = m.async_compute_cost(1000, 128, 1);
        let s = m.sync_compute_cost(1000, 128, 1);
        assert!(a > 100.0 * s, "atomics-per-nonzero vs buffered row panels");
    }

    #[test]
    fn scaled_model_preserves_per_element_costs() {
        let base = CostModel::delta();
        let scaled = CostModel::delta_scaled();
        assert_eq!(scaled.beta_sync, base.beta_sync);
        assert_eq!(scaled.beta_async, base.beta_async);
        assert_eq!(scaled.gamma_async, base.gamma_async);
        assert_eq!(scaled.memory_per_node, base.memory_per_node);
        assert!(scaled.alpha_sync < base.alpha_sync / 200.0);
        assert!(scaled.alpha_async < base.alpha_async / 200.0);
    }

    #[test]
    fn free_network_removes_all_comm_cost() {
        let m = CostModel::free_network();
        assert_eq!(m.multicast_cost(1 << 20, 63), 0.0);
        assert_eq!(m.rget_cost(1 << 20, 100), 0.0);
        assert!(m.async_compute_cost(10, 1, 1) > 0.0, "compute still costs");
    }

    #[test]
    fn serde_round_trip() {
        let m = CostModel::delta();
        let json = serde_json::to_string(&m).unwrap();
        let back: CostModel = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn failed_attempt_costs_the_transfer_plus_backoff() {
        let m = CostModel::delta();
        let base = m.rget_cost(1024, 4);
        assert_eq!(m.failed_get_cost(base, 1e-6), base + 1e-6);
        assert!(m.failed_get_cost(base, 0.0) >= base, "a failed attempt is never free");
    }

    fn example_stats() -> SpmmStats {
        SpmmStats {
            p: 8,
            rows: 4096,
            cols: 4096,
            k: 32,
            nnz: 200_000,
            max_rank_nnz: 40_000,
            max_rank_rows: 512,
            max_block_rows: 512,
            max_remote_blocks: 7,
            max_remote_rows: 3_000,
            max_remote_runs: 900,
            max_touched_stripes: 120,
            remote_fetches: 20_000,
            hot_fetches: 14_000,
            hot_rows: 2_500,
            sync_nnz_fraction: 0.8,
            sync_chain_cols: 3_000,
            sync_chain_stripes: 90,
            mean_sync_group_readers: 4.5,
            panel_height: 32,
        }
    }

    fn all_predictions(m: &CostModel, s: &SpmmStats) -> Vec<f64> {
        vec![
            m.predict_allgather(s),
            m.predict_dense_shifting(s, 1),
            m.predict_dense_shifting(s, 2),
            m.predict_async_coarse(s),
            m.predict_one_five_d(s, 2),
            m.predict_summa(s, 2, 4),
            m.predict_slicing(s),
            m.predict_async_fine(s),
            m.predict_two_face(s),
        ]
    }

    #[test]
    fn predictions_are_finite_and_positive() {
        let m = CostModel::delta_scaled();
        for (i, v) in all_predictions(&m, &example_stats()).iter().enumerate() {
            assert!(v.is_finite() && *v > 0.0, "prediction {i} = {v}");
        }
    }

    #[test]
    fn predictions_survive_degenerate_problems() {
        // p = 1, K = 1, empty matrix: every remote/hot statistic is zero.
        // Predictions must stay finite (no 0/0) so Auto never sees NaN.
        let s = SpmmStats {
            p: 1,
            rows: 0,
            cols: 0,
            k: 1,
            nnz: 0,
            max_rank_nnz: 0,
            max_rank_rows: 0,
            max_block_rows: 0,
            max_remote_blocks: 0,
            max_remote_rows: 0,
            max_remote_runs: 0,
            max_touched_stripes: 0,
            remote_fetches: 0,
            hot_fetches: 0,
            hot_rows: 0,
            sync_nnz_fraction: 0.0,
            sync_chain_cols: 0,
            sync_chain_stripes: 0,
            mean_sync_group_readers: 0.0,
            panel_height: 32,
        };
        let m = CostModel::delta_scaled();
        for (i, v) in all_predictions(&m, &s).iter().enumerate() {
            assert!(v.is_finite() && *v >= 0.0, "degenerate prediction {i} = {v}");
        }
    }

    #[test]
    fn replication_trades_shift_steps_for_replication_shifts() {
        // At c = p the main loop degenerates to a single step; the
        // prediction must reflect the replication phase instead of charging
        // p shift steps.
        let m = CostModel::delta_scaled();
        let s = example_stats();
        let ds1 = m.predict_dense_shifting(&s, 1);
        let ds8 = m.predict_dense_shifting(&s, 8);
        assert!(ds1.is_finite() && ds8.is_finite());
        assert_ne!(ds1, ds8);
    }

    #[test]
    fn spmm_stats_serde_round_trip() {
        let s = example_stats();
        let json = serde_json::to_string(&s).unwrap();
        let back: SpmmStats = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}
