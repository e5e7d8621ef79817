//! The Two-Face sparse matrix representation (Figure 6).
//!
//! Preprocessing splits each node's nonzeros into two structures:
//!
//! * a [`SyncLocalMatrix`] holding synchronous and local-input nonzeros in
//!   row-major order, divided into *row panels* — the unit of work for
//!   synchronous compute threads, each finished with a single accumulation
//!   into `C` (Figure 6b);
//! * an [`AsyncMatrix`] holding asynchronous nonzeros grouped by stripe
//!   (stripes in row-major i.e. ascending order), column-major *within* each
//!   stripe so the distinct required `B` rows fall out of a single linear
//!   scan (Figure 6c).
//!
//! Row indices in both structures are node-local (0-based within the node's
//! row block); column indices stay global. Entries are stored as 16-byte
//! [`SmallTriplet`]s (`u32` indices, `f64` value) — the compact layout the
//! kernels stream — which is why construction requires the matrix dimensions
//! to fit the small-index limit (checked, never truncated; every runnable
//! problem fits, since `B` alone at `2^32` rows would exceed host memory).

use twoface_matrix::{fits_small_index, CooMatrix, SmallTriplet, Triplet};
use twoface_partition::{PartitionPlan, StripeClass};

/// The synchronous/local-input sparse matrix of one node (Figure 6b).
#[derive(Debug, Clone, PartialEq)]
pub struct SyncLocalMatrix {
    local_rows: usize,
    panel_height: usize,
    entries: Vec<SmallTriplet>,
    /// `panel_ptrs[i]..panel_ptrs[i+1]` indexes the entries of panel `i`
    /// (local rows `[i*h, (i+1)*h)`).
    panel_ptrs: Vec<usize>,
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

    /// Number of row panels.
    pub fn num_panels(&self) -> usize {
        self.panel_ptrs.len().saturating_sub(1)
    }

    /// Number of row panels that contain at least one nonzero — the panels
    /// that are actually enqueued as work units.
    pub fn num_nonempty_panels(&self) -> usize {
        (0..self.num_panels()).filter(|&i| !self.panel(i).is_empty()).count()
    }

    /// The configured panel height in rows.
    pub fn panel_height(&self) -> usize {
        self.panel_height
    }

    /// The entries of panel `i`, row-major.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_panels()`.
    pub fn panel(&self, i: usize) -> &[SmallTriplet] {
        &self.entries[self.panel_ptrs[i]..self.panel_ptrs[i + 1]]
    }

    /// All entries, row-major.
    pub fn entries(&self) -> &[SmallTriplet] {
        &self.entries
    }

    /// Approximate heap footprint in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.entries.len() * std::mem::size_of::<SmallTriplet>()
            + self.panel_ptrs.len() * std::mem::size_of::<usize>()
    }
}

/// One asynchronous stripe of one node (a run of Figure 6c).
#[derive(Debug, Clone, PartialEq)]
pub struct AsyncStripe {
    /// Global stripe index.
    pub stripe: usize,
    /// Nonzeros in column-major order (sorted by column, then local row).
    pub entries: Vec<SmallTriplet>,
    /// The distinct global column ids of the entries, ascending — the
    /// `UniqueColIDs` of Algorithm 3, identifying the `B` rows to fetch.
    pub unique_cols: Vec<u32>,
    /// The same nonzeros in row-major order, precomputed so the §7.1
    /// row-major ablation does not re-sort the stripe on every run.
    entries_row_major: Vec<SmallTriplet>,
}

impl AsyncStripe {
    /// Nonzeros in this stripe.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// The stripe's nonzeros in row-major order (sorted by local row, then
    /// column) — the traversal order of the §7.1 row-major ablation.
    pub fn entries_row_major(&self) -> &[SmallTriplet] {
        &self.entries_row_major
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

    /// Approximate heap footprint in bytes (both entry orders plus the
    /// unique-column tables).
    pub fn approx_bytes(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| {
                2 * s.entries.len() * std::mem::size_of::<SmallTriplet>()
                    + s.unique_cols.len() * std::mem::size_of::<u32>()
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
}

/// Where [`RankMatrices::build_from_rows`] sends the nonzeros of a stripe.
#[derive(Debug, Clone, Copy)]
enum Route {
    /// The plan has no class for the stripe on this rank.
    Unclassified,
    /// Synchronous or local-input: the row-panel matrix.
    SyncLocal,
    /// Asynchronous: the bucket at this index.
    Async(usize),
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
    /// block; columns stay global.
    ///
    /// # Panics
    ///
    /// Panics if `panel_height == 0`, or if the matrix dimensions exceed the
    /// small-index (`u32`) limit of the compact entry layout.
    pub fn build(
        a: &CooMatrix,
        plan: &PartitionPlan,
        rank: usize,
        panel_height: usize,
    ) -> RankMatrices {
        let rows = plan.layout().row_range(rank);
        let all = a.triplets();
        let lo = all.partition_point(|t| t.row < rows.start);
        let hi = lo + all[lo..].partition_point(|t| t.row < rows.end);
        RankMatrices::build_from_rows(&all[lo..hi], plan, rank, panel_height)
    }

    /// Builds the node's structures from a row-sorted slice holding exactly
    /// the rank's nonzeros in *global* coordinates — the entry point the
    /// streamed (out-of-core) pipeline uses with per-rank shards, and which
    /// [`RankMatrices::build`] feeds with a subslice of the resident matrix.
    /// Both paths walk entries in the same order, so they construct
    /// identical structures.
    ///
    /// # Panics
    ///
    /// Panics if `panel_height == 0`, or if the plan's layout dimensions
    /// exceed the small-index (`u32`) limit of the compact entry layout.
    pub fn build_from_rows(
        rank_triplets: &[Triplet],
        plan: &PartitionPlan,
        rank: usize,
        panel_height: usize,
    ) -> RankMatrices {
        assert!(panel_height > 0, "panel height must be positive");
        let layout = plan.layout();
        assert!(
            fits_small_index(layout.rows(), layout.cols()),
            "matrix dimensions exceed the u32 small-index limit of the compact rank structures"
        );
        let rows = layout.row_range(rank);
        // Where each stripe's nonzeros go, looked up once per nonzero:
        // asynchronous stripes index their bucket, which are in ascending
        // stripe order because the classification is.
        let mut routes = vec![Route::Unclassified; layout.num_stripes()];
        let mut async_buckets: Vec<(usize, Vec<SmallTriplet>)> = Vec::new();
        for &(stripe, class) in &plan.classification(rank).classes {
            routes[stripe] = match class {
                StripeClass::Sync | StripeClass::LocalInput => Route::SyncLocal,
                StripeClass::Async => {
                    async_buckets.push((stripe, Vec::new()));
                    Route::Async(async_buckets.len() - 1)
                }
            };
        }
        let mut sync_entries: Vec<SmallTriplet> = Vec::with_capacity(rank_triplets.len());
        for t in rank_triplets {
            debug_assert!(rows.contains(&t.row), "entry outside the rank's row block");
            let local = SmallTriplet::new(t.row - rows.start, t.col, t.val);
            match routes[layout.stripe_of_col(t.col)] {
                Route::SyncLocal => sync_entries.push(local),
                Route::Async(bucket) => async_buckets[bucket].1.push(local),
                Route::Unclassified => panic!("every nonzero's stripe is classified"),
            }
        }
        // The input slice is row-major, so sync_entries already are; build
        // panels.
        let local_rows = rows.len();
        let num_panels = local_rows.div_ceil(panel_height).max(1);
        let mut panel_ptrs = Vec::with_capacity(num_panels + 1);
        panel_ptrs.push(0);
        let mut cursor = 0usize;
        for p in 0..num_panels {
            let row_end = (p + 1) * panel_height;
            while cursor < sync_entries.len() && (sync_entries[cursor].row as usize) < row_end {
                cursor += 1;
            }
            panel_ptrs.push(cursor);
        }
        debug_assert_eq!(*panel_ptrs.last().expect("non-empty"), sync_entries.len());

        // A supplied plan may classify stripes these triplets leave empty;
        // those get no async stripe.
        let stripes = async_buckets
            .into_iter()
            .filter(|(_, entries)| !entries.is_empty())
            .map(|(stripe, mut entries)| {
                // The bucket preserves the input's row-major order; snapshot it
                // before the column-major sort instead of re-sorting later.
                let entries_row_major = entries.clone();
                entries.sort_by_key(|t| (t.col, t.row));
                let mut unique_cols: Vec<u32> = entries.iter().map(|t| t.col).collect();
                unique_cols.dedup(); // sorted by col already
                AsyncStripe { stripe, entries, unique_cols, entries_row_major }
            })
            .collect();

        RankMatrices {
            sync_local: SyncLocalMatrix {
                local_rows,
                panel_height,
                entries: sync_entries,
                panel_ptrs,
            },
            asynchronous: AsyncMatrix { stripes },
        }
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
        let m = RankMatrices::build(&a, &plan, 0, 2);
        // Node 0's local-input nonzeros: (0,0), (1,1) in stripes 0-1.
        assert_eq!(m.sync_local.nnz(), 2);
        // Remote: (0,5), (2,5), (2,4), (3,7) in stripes 2 and 3.
        assert_eq!(m.asynchronous.nnz(), 4);
        assert_eq!(m.asynchronous.num_stripes(), 2);
        let s2 = &m.asynchronous.stripes()[0];
        assert_eq!(s2.stripe, 2);
        assert_eq!(s2.unique_cols, vec![4, 5]);
        // Column-major: col 4 first, then col 5 rows ascending.
        let order: Vec<(u32, u32)> = s2.entries.iter().map(|t| (t.col, t.row)).collect();
        assert_eq!(order, vec![(4, 2), (5, 0), (5, 2)]);
        // The precomputed row-major view holds the same nonzeros sorted by
        // (row, col).
        let rm: Vec<(u32, u32)> = s2.entries_row_major().iter().map(|t| (t.row, t.col)).collect();
        assert_eq!(rm, vec![(0, 5), (2, 4), (2, 5)]);
    }

    #[test]
    fn all_sync_plan_keeps_everything_in_sync_matrix() {
        let a = fixture();
        let plan = PartitionPlan::build_uniform(&a, layout(), 4, StripeClass::Sync);
        let m = RankMatrices::build(&a, &plan, 0, 2);
        assert_eq!(m.sync_local.nnz(), 6);
        assert_eq!(m.asynchronous.nnz(), 0);
    }

    #[test]
    fn panels_partition_rows() {
        let a = fixture();
        let plan = PartitionPlan::build_uniform(&a, layout(), 4, StripeClass::Sync);
        let m = RankMatrices::build(&a, &plan, 0, 2);
        let sl = &m.sync_local;
        assert_eq!(sl.local_rows(), 4);
        assert_eq!(sl.num_panels(), 2);
        // Panel 0: local rows 0-1 => (0,0), (0,5), (1,1).
        assert_eq!(sl.panel(0).len(), 3);
        // Panel 1: local rows 2-3 => (2,4), (2,5), (3,7).
        assert_eq!(sl.panel(1).len(), 3);
        let total: usize = (0..sl.num_panels()).map(|p| sl.panel(p).len()).sum();
        assert_eq!(total, sl.nnz());
    }

    #[test]
    fn rows_are_rebased_per_node() {
        let a = fixture();
        let plan = PartitionPlan::build_uniform(&a, layout(), 4, StripeClass::Async);
        let m1 = RankMatrices::build(&a, &plan, 1, 2);
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
        let total: usize = (0..2).map(|rank| RankMatrices::build(&a, &plan, rank, 2).nnz()).sum();
        assert_eq!(total, a.nnz());
    }

    #[test]
    fn nonempty_panel_count_skips_gaps() {
        // Single nonzero in the last local row of node 0 => 1 non-empty of 2.
        let a = CooMatrix::from_triplets(8, 8, vec![(3, 0, 1.0), (4, 0, 1.0)]).unwrap();
        let plan = PartitionPlan::build_uniform(&a, layout(), 4, StripeClass::Sync);
        let m = RankMatrices::build(&a, &plan, 0, 2);
        assert_eq!(m.sync_local.num_panels(), 2);
        assert_eq!(m.sync_local.num_nonempty_panels(), 1);
    }
}
