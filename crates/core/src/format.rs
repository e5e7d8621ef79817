//! The Two-Face sparse matrix representation (Figure 6).
//!
//! Preprocessing splits each node's nonzeros into two structures, each
//! stored once, in the row-major order every kernel reads:
//!
//! * a [`SyncLocalMatrix`] holding synchronous and local-input nonzeros
//!   row-major, plus the number of non-empty *row panels* — the unit of
//!   work for synchronous compute threads, each finished with a single
//!   accumulation into `C` (Figure 6b) — that the sync lane's charge counts;
//! * an [`AsyncMatrix`] holding asynchronous nonzeros grouped by stripe
//!   (ascending), each stripe's nonzeros row-major with its distinct
//!   columns, the `UniqueColIDs` that name the `B` rows to fetch
//!   (Figure 6c).
//!
//! Row indices in both structures are node-local (0-based within the node's
//! row block); column indices stay global. Entries are stored as 16-byte
//! [`SmallTriplet`]s (`u32` indices, `f64` value) — the compact layout the
//! kernels stream — which is why construction requires the matrix dimensions
//! to fit the small-index limit (checked, never truncated; every runnable
//! problem fits, since `B` alone at `2^32` rows would exceed host memory).

use crate::config::check_panel_height;
use crate::error::{RankError, RunError};
use std::ops::Range;
use twoface_matrix::{fits_small_index, CooMatrix, SmallTriplet, Triplet};
use twoface_partition::{PartitionPlan, StripeClass};

/// The synchronous/local-input sparse matrix of one node (Figure 6b).
#[derive(Debug, Clone, PartialEq)]
pub struct SyncLocalMatrix {
    local_rows: usize,
    panel_height: usize,
    entries: Vec<SmallTriplet>,
    nonempty_panels: usize,
}

impl SyncLocalMatrix {
    /// Number of local rows covered (the node's row block height).
    pub fn local_rows(&self) -> usize {
        self.local_rows
    }

    /// Nonzeros stored.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Number of row panels that contain at least one nonzero — the panels
    /// that are actually enqueued as work units.
    pub fn num_nonempty_panels(&self) -> usize {
        self.nonempty_panels
    }

    /// The configured panel height in rows.
    pub fn panel_height(&self) -> usize {
        self.panel_height
    }

    /// All entries, row-major.
    pub fn entries(&self) -> &[SmallTriplet] {
        &self.entries
    }

    /// Approximate heap footprint in bytes.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of_val(self.entries.as_slice())
    }
}

/// The row panels of `panel_height` rows that hold at least one of the
/// row-major `entries`: one binary search per non-empty panel.
fn count_nonempty_panels(entries: &[SmallTriplet], panel_height: usize) -> usize {
    let (mut panels, mut rest) = (0, entries);
    while let Some(first) = rest.first() {
        let panel_end = (first.row as usize / panel_height + 1) * panel_height;
        rest = &rest[rest.partition_point(|t| (t.row as usize) < panel_end)..];
        panels += 1;
    }
    panels
}

/// One asynchronous stripe of one node (a run of Figure 6c).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AsyncStripe {
    /// Global stripe index.
    pub stripe: usize,
    /// Nonzeros in row-major order (sorted by local row, then column).
    pub entries: Vec<SmallTriplet>,
    /// The distinct global column ids of the entries, ascending — the
    /// `UniqueColIDs` of Algorithm 3, identifying the `B` rows to fetch.
    pub unique_cols: Vec<u32>,
}

impl AsyncStripe {
    /// Stripe `stripe` over its row-major `entries`, with their
    /// `UniqueColIDs`.
    pub(crate) fn new(stripe: usize, entries: Vec<SmallTriplet>) -> AsyncStripe {
        let mut async_stripe = AsyncStripe { stripe, entries, unique_cols: Vec::new() };
        async_stripe.index_cols();
        async_stripe
    }

    /// Recomputes `unique_cols` from `entries` — the one rule every stripe
    /// is built by: sort the columns and drop repeats.
    pub(crate) fn index_cols(&mut self) {
        self.unique_cols.clear();
        self.unique_cols.extend(self.entries.iter().map(|t| t.col));
        self.unique_cols.sort_unstable();
        self.unique_cols.dedup();
    }

    /// Nonzeros in this stripe.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }
}

/// The asynchronous sparse matrix of one node (Figure 6c).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AsyncMatrix {
    stripes: Vec<AsyncStripe>,
}

impl AsyncMatrix {
    /// The stripes, ascending by stripe index.
    pub fn stripes(&self) -> &[AsyncStripe] {
        &self.stripes
    }

    /// Approximate heap footprint in bytes (the entries plus the
    /// unique-column tables).
    pub fn approx_bytes(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| {
                std::mem::size_of_val(s.entries.as_slice())
                    + std::mem::size_of_val(s.unique_cols.as_slice())
                    + std::mem::size_of::<AsyncStripe>()
            })
            .sum()
    }

    /// Total nonzeros across stripes.
    pub fn nnz(&self) -> usize {
        self.stripes.iter().map(AsyncStripe::nnz).sum()
    }

    /// Number of asynchronous stripes.
    pub fn num_stripes(&self) -> usize {
        self.stripes.len()
    }

    /// The stripes of `buckets`, where bucket `i` holds stripe
    /// `stripes[i]`'s nonzeros row-major and `stripes` ascends. A supplied
    /// plan may classify stripes a rank's nonzeros leave empty; those get no
    /// stripe.
    pub(crate) fn from_buckets(stripes: &[usize], buckets: Vec<Vec<SmallTriplet>>) -> AsyncMatrix {
        let stripes = stripes
            .iter()
            .zip(buckets)
            .filter(|(_, entries)| !entries.is_empty())
            .map(|(&stripe, entries)| AsyncStripe::new(stripe, entries))
            .collect();
        AsyncMatrix { stripes }
    }
}

/// The nonzeros of `a` in `rows`, found by two binary searches on its
/// row-sorted triplets.
pub(crate) fn row_slice(a: &CooMatrix, rows: Range<usize>) -> &[Triplet] {
    let all = a.triplets();
    let lo = all.partition_point(|t| t.row < rows.start);
    let hi = lo + all[lo..].partition_point(|t| t.row < rows.end);
    &all[lo..hi]
}

/// Where a rank's nonzeros in one stripe go.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Route {
    /// The plan has no class for the stripe on this rank.
    Unclassified,
    /// Synchronous or local-input: the row-panel (sync) lane.
    SyncLocal,
    /// Asynchronous: the bucket at this index of
    /// [`Routes::async_stripes`].
    Async(usize),
}

/// One rank's classification as a stripe-indexed [`Route`] table, so each
/// nonzero looks its class up once.
pub(crate) struct Routes {
    table: Vec<Route>,
    async_stripes: Vec<usize>,
}

impl Routes {
    /// `rank`'s routes under `plan`.
    pub(crate) fn new(plan: &PartitionPlan, rank: usize) -> Routes {
        Routes::from_classes(plan.layout().num_stripes(), &plan.classification(rank).classes)
    }

    /// The routes of one rank's `(stripe, class)` list, ascending by stripe,
    /// over `num_stripes` stripes.
    pub(crate) fn from_classes(num_stripes: usize, classes: &[(usize, StripeClass)]) -> Routes {
        let mut table = vec![Route::Unclassified; num_stripes];
        let mut async_stripes = Vec::new();
        for &(stripe, class) in classes {
            table[stripe] = match class {
                StripeClass::Sync | StripeClass::LocalInput => Route::SyncLocal,
                StripeClass::Async => {
                    async_stripes.push(stripe);
                    Route::Async(async_stripes.len() - 1)
                }
            };
        }
        Routes { table, async_stripes }
    }

    /// The route of stripe `stripe`.
    #[inline]
    pub(crate) fn of(&self, stripe: usize) -> Route {
        self.table[stripe]
    }

    /// The asynchronous stripes, ascending (the classification is): bucket
    /// `i` of [`Route::Async`] holds stripe `async_stripes()[i]`.
    pub(crate) fn async_stripes(&self) -> &[usize] {
        &self.async_stripes
    }
}

/// Both preprocessed structures of one node.
#[derive(Debug, Clone, PartialEq)]
pub struct RankMatrices {
    /// Synchronous and local-input nonzeros (Figure 6b).
    pub sync_local: SyncLocalMatrix,
    /// Asynchronous nonzeros (Figure 6c).
    pub asynchronous: AsyncMatrix,
}

impl RankMatrices {
    /// Approximate heap footprint in bytes — the quantity the serving
    /// layer's plan cache charges against its byte budget.
    pub fn approx_bytes(&self) -> usize {
        self.sync_local.approx_bytes() + self.asynchronous.approx_bytes()
    }

    /// Builds the node's structures from the global matrix and the plan.
    ///
    /// Only nonzeros in `rank`'s row block are consulted — located by a
    /// binary search on the row-sorted triplet array, so the per-rank cost is
    /// `O(nnz_rank)`, not a full-matrix scan (building all `p` ranks is
    /// `O(nnz)` total, not `O(p * nnz)`). Row indices are rebased to the
    /// block; columns stay global. The streamed (out-of-core) pipeline builds
    /// no `RankMatrices`: it routes each rank's spilled shard by the same
    /// stripe routes, so both store the same async stripes and sync
    /// entries.
    ///
    /// # Errors
    ///
    /// [`RunError::Shape`] if `plan` was built for a layout of another shape
    /// than `a`'s, or for the first nonzero, row-major, in a stripe `plan`
    /// never classified for `rank`: the plan was built for another matrix.
    /// [`RunError::InvalidConfig`] if `panel_height == 0`.
    ///
    /// # Panics
    ///
    /// Panics if the matrix dimensions exceed the small-index (`u32`) limit
    /// of the compact entry layout.
    pub fn build(
        a: &CooMatrix,
        plan: &PartitionPlan,
        rank: usize,
        panel_height: usize,
    ) -> Result<RankMatrices, RunError> {
        let layout = plan.layout();
        if (layout.rows(), layout.cols()) != (a.rows(), a.cols()) {
            return Err(RunError::Shape {
                context: format!(
                    "supplied plan was built for a {} × {} layout over {} nodes, but the matrix \
                     is {} × {}",
                    layout.rows(),
                    layout.cols(),
                    layout.nodes(),
                    a.rows(),
                    a.cols()
                ),
            });
        }
        check_panel_height(panel_height)?;
        assert!(
            fits_small_index(a.rows(), a.cols()),
            "matrix dimensions exceed the u32 small-index limit of the compact rank structures"
        );
        let rows = layout.row_range(rank);
        let rank_triplets = row_slice(a, rows.clone());
        let routes = Routes::new(plan, rank);
        let mut async_buckets = vec![Vec::new(); routes.async_stripes().len()];
        let mut sync_entries: Vec<SmallTriplet> = Vec::with_capacity(rank_triplets.len());
        for t in rank_triplets {
            let local = SmallTriplet::new(t.row - rows.start, t.col, t.val);
            let stripe = layout.stripe_of_col(t.col);
            match routes.of(stripe) {
                Route::SyncLocal => sync_entries.push(local),
                Route::Async(bucket) => async_buckets[bucket].push(local),
                Route::Unclassified => {
                    let error = RankError::Unclassified { stripe, row: t.row, col: t.col };
                    return Err(error.into_run_error(rank, Vec::new()));
                }
            }
        }
        // The row slice is row-major, so the sync entries and every bucket
        // already are.
        Ok(RankMatrices {
            sync_local: SyncLocalMatrix {
                local_rows: rows.len(),
                panel_height,
                nonempty_panels: count_nonempty_panels(&sync_entries, panel_height),
                entries: sync_entries,
            },
            asynchronous: AsyncMatrix::from_buckets(routes.async_stripes(), async_buckets),
        })
    }

    /// Total nonzeros across both structures.
    pub fn nnz(&self) -> usize {
        self.sync_local.nnz() + self.asynchronous.nnz()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twoface_partition::{ModelCoefficients, OneDimLayout, PartitionPlan, PlanOptions};

    /// 8x8, 2 nodes, stripe width 2, with a mix of local and remote
    /// nonzeros; force-all-async and force-all-sync variants come from
    /// uniform plans.
    fn fixture() -> CooMatrix {
        CooMatrix::from_triplets(
            8,
            8,
            vec![
                (0, 0, 1.0),
                (0, 5, 2.0),
                (1, 1, 3.0),
                (2, 5, 4.0),
                (2, 4, 5.0),
                (3, 7, 6.0),
                (5, 0, 7.0),
                (7, 6, 8.0),
            ],
        )
        .unwrap()
    }

    fn layout() -> OneDimLayout {
        OneDimLayout::new(8, 8, 2, 2)
    }

    #[test]
    fn all_async_plan_routes_remote_nonzeros_to_async_matrix() {
        let a = fixture();
        let plan = PartitionPlan::build_uniform(&a, layout(), 4, StripeClass::Async);
        let m = RankMatrices::build(&a, &plan, 0, 2).unwrap();
        // Node 0's local-input nonzeros: (0,0), (1,1) in stripes 0-1.
        assert_eq!(m.sync_local.nnz(), 2);
        // Remote: (0,5), (2,5), (2,4), (3,7) in stripes 2 and 3.
        assert_eq!(m.asynchronous.nnz(), 4);
        assert_eq!(m.asynchronous.num_stripes(), 2);
        let s2 = &m.asynchronous.stripes()[0];
        assert_eq!(s2.stripe, 2);
        assert_eq!(s2.unique_cols, vec![4, 5]);
        // Row-major: sorted by (local row, col).
        let order: Vec<(u32, u32)> = s2.entries.iter().map(|t| (t.row, t.col)).collect();
        assert_eq!(order, vec![(0, 5), (2, 4), (2, 5)]);
    }

    #[test]
    fn all_sync_plan_keeps_everything_in_sync_matrix() {
        let a = fixture();
        let plan = PartitionPlan::build_uniform(&a, layout(), 4, StripeClass::Sync);
        let m = RankMatrices::build(&a, &plan, 0, 2).unwrap();
        assert_eq!(m.sync_local.nnz(), 6);
        assert_eq!(m.asynchronous.nnz(), 0);
    }

    #[test]
    fn panels_partition_rows() {
        let a = fixture();
        let plan = PartitionPlan::build_uniform(&a, layout(), 4, StripeClass::Sync);
        let sl = RankMatrices::build(&a, &plan, 0, 2).unwrap().sync_local;
        assert_eq!((sl.local_rows(), sl.panel_height()), (4, 2));
        // Panel 0: local rows 0-1 => (0,0), (0,5), (1,1); panel 1: local
        // rows 2-3 => (2,4), (2,5), (3,7).
        let panels: Vec<u32> = sl.entries().iter().map(|t| t.row / 2).collect();
        assert_eq!(panels, vec![0, 0, 0, 1, 1, 1]);
        assert_eq!(sl.num_nonempty_panels(), 2);
        // One panel per row fills all four; one of four rows holds all six.
        for (height, panels) in [(1, 4), (4, 1)] {
            let sl = RankMatrices::build(&a, &plan, 0, height).unwrap().sync_local;
            assert_eq!(sl.num_nonempty_panels(), panels, "height {height}");
        }
    }

    #[test]
    fn rows_are_rebased_per_node() {
        let a = fixture();
        let plan = PartitionPlan::build_uniform(&a, layout(), 4, StripeClass::Async);
        let m1 = RankMatrices::build(&a, &plan, 1, 2).unwrap();
        // Node 1 rows 4..8: (5,0) remote, (7,6) local.
        assert_eq!(m1.sync_local.nnz(), 1);
        assert_eq!(m1.sync_local.entries()[0].row, 3); // global row 7
        assert_eq!(m1.asynchronous.nnz(), 1);
        assert_eq!(m1.asynchronous.stripes()[0].entries[0].row, 1); // global row 5
    }

    #[test]
    fn model_built_plan_conserves_nonzeros() {
        let a = fixture();
        let plan = PartitionPlan::build(
            &a,
            layout(),
            &ModelCoefficients::table3(),
            4,
            PlanOptions::default(),
        );
        let total: usize =
            (0..2).map(|rank| RankMatrices::build(&a, &plan, rank, 2).unwrap().nnz()).sum();
        assert_eq!(total, a.nnz());
    }

    #[test]
    fn nonempty_panel_count_skips_gaps() {
        // Single nonzero in the last local row of node 0 => 1 non-empty of 2.
        let a = CooMatrix::from_triplets(8, 8, vec![(3, 0, 1.0), (4, 0, 1.0)]).unwrap();
        let plan = PartitionPlan::build_uniform(&a, layout(), 4, StripeClass::Sync);
        let m = RankMatrices::build(&a, &plan, 0, 2).unwrap();
        assert_eq!(m.sync_local.num_nonempty_panels(), 1);
    }

    /// The non-empty panel count's definition: one walk over every entry,
    /// counting each panel it enters.
    fn linear_nonempty_panels(entries: &[SmallTriplet], h: usize) -> usize {
        let mut panels: Vec<usize> = entries.iter().map(|t| t.row as usize / h).collect();
        panels.dedup();
        panels.len()
    }

    #[test]
    fn nonempty_panel_count_matches_the_linear_walk() {
        // Rows 6, 6, 8 and 15 hold entries: in panels of 3 over 20 rows,
        // panels 0-1 (leading), 3-4 (middle) and 6 (trailing) are empty.
        let triplets: Vec<_> =
            [6, 6, 8, 15].iter().enumerate().map(|(col, &row)| (row, col, 1.0)).collect();
        let build = |rows, height| {
            let a = CooMatrix::from_triplets(rows, 4, triplets.clone()).unwrap();
            let layout = OneDimLayout::new(rows, 4, 1, 2);
            let plan = PartitionPlan::build_uniform(&a, layout, 4, StripeClass::Sync);
            RankMatrices::build(&a, &plan, 0, height).unwrap().sync_local
        };
        assert_eq!(build(20, 3).num_nonempty_panels(), 2);
        for height in [1, 2, 3, 4, 7, 16, 64] {
            for rows in [16, 20, 21, 100] {
                let sl = build(rows, height);
                assert_eq!(sl.nnz(), 4);
                assert_eq!(
                    sl.num_nonempty_panels(),
                    linear_nonempty_panels(sl.entries(), height),
                    "height={height} rows={rows}"
                );
            }
        }
        assert_eq!(count_nonempty_panels(&[], 4), 0);
    }
}
