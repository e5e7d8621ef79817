//! The per-rank body of the Two-Face algorithm (Algorithms 1–3).
//!
//! Each simulated rank plays all the roles of Algorithm 1 on its two virtual
//! lanes:
//!
//! * **Sync lane, transfer phase** (Algorithm 1 lines 5–8): walk the dense
//!   stripes in the canonical global order and participate in each multicast
//!   whose replicated metadata lists this rank — as root when it owns the
//!   stripe, as destination when any of its stripes was classified sync.
//! * **Async lane** (lines 9–14, Algorithm 3): for each asynchronous stripe,
//!   scan `UniqueColIDs`, coalesce into runs, issue one indexed `Rget`, and
//!   compute straight into `C`, each row's products in ascending column
//!   order, as the paper's column-major loop adds them.
//! * **Sync lane, compute phase** (lines 15–19, Algorithm 2): once the
//!   multicasts are in, process row panels with a thread-local accumulation
//!   buffer.
//!
//! The rank finishes at the later of its two lanes, exactly as the real
//! node's two thread groups do. One simplification: the paper's async
//! threads join the synchronous row-panel pool after draining their queue
//! (line 15); with the Table-2 split that adds at most 8 of 128 threads, an
//! effect the paper's own model also neglects, so the simulator charges sync
//! compute at the sync pool's throughput regardless.
//!
//! One body serves every Two-Face run: it is generic over a
//! [`StripeSource`], so one-shot, prepared, masked (sampled) and streamed
//! runs issue one op sequence by construction.

use crate::algo::SpmmAlgorithm;
use crate::coalesce::coalesce_rows;
use crate::config::{AsyncLayout, TwoFaceConfig};
use crate::error::RankError;
use crate::format::{row_slice, AsyncMatrix, AsyncStripe, RankMatrices, Routes};
use crate::kernels::{
    par_async_stripe, par_route_rows, par_sync_panels, BlockRows, FetchedRows, RankSlice, Stash,
};
use crate::pool::{Pool, WallTimer};
use crate::runner::{ExecOpts, Problem};
use std::sync::Arc;
use twoface_matrix::{CooMatrix, Scalar, SCALAR_BYTES};
use twoface_net::{Lane, MulticastStep, NetError, Payload, PhaseClass, RankCtx};
use twoface_partition::PartitionPlan;

/// Each rank's block of `B`, copied out across `pool` in rank order — the
/// one input of a planned run that depends on the dense operand.
pub(crate) fn stage_b_blocks(problem: &Problem, pool: &Pool) -> Vec<Arc<Vec<f64>>> {
    pool.map(problem.layout.nodes(), |rank| Arc::new(problem.b_block(rank)))
}

/// Where the ranks of a [`PlannedAlgo`] read their nonzeros.
pub(crate) enum RankNonzeros<'a> {
    /// Every rank's Figure-6 structures, shared with the compatible
    /// [`PreparedMatrix`](crate::PreparedMatrix) that built them.
    Prepared(Arc<Vec<RankMatrices>>),
    /// The row-sorted `A` itself: each rank walks its row slice once in its
    /// own body ([`SliceSource`]), so a one-shot run builds no rank
    /// structures.
    Slices(&'a CooMatrix),
}

/// Staged Two-Face / Async Fine execution: the plan (classified or uniform)
/// decides which of the two it behaves as.
pub(crate) struct PlannedAlgo<'a> {
    /// The (replicated) plan: classifications plus multicast metadata.
    pub plan: Arc<PartitionPlan>,
    /// Where each rank reads its nonzeros.
    pub nonzeros: RankNonzeros<'a>,
    /// Each rank's block of `B`.
    pub b_blocks: Vec<Arc<Vec<f64>>>,
    pub config: &'a TwoFaceConfig,
    pub exec: ExecOpts,
}

/// The per-rank memory estimate of a planned (Two-Face / Async Fine) run
/// beyond the rank's own operands: buffered sync stripes plus a conservative
/// double of the largest async fetch (coalescing may pad fetches). Shared by
/// the resident staging gate and the streamed pipeline, so both reject the
/// same infeasible runs.
pub(crate) fn planned_memory_extra(plan: &PartitionPlan, k: usize, rank: usize) -> usize {
    use twoface_partition::StripeClass;
    let layout = plan.layout();
    let row_bytes = k * SCALAR_BYTES;
    let mut sync_bytes = 0usize;
    let mut max_fetch = 0usize;
    for &(stripe, class) in &plan.classification(rank).classes {
        match class {
            StripeClass::Sync => {
                sync_bytes += layout.stripe_cols(stripe).len() * row_bytes;
            }
            StripeClass::Async => {
                let l = plan.profile(rank).stripe(stripe).map_or(0, |s| s.rows_needed());
                max_fetch = max_fetch.max(l * row_bytes);
            }
            StripeClass::LocalInput => {}
        }
    }
    sync_bytes + 2 * max_fetch
}

impl SpmmAlgorithm for PlannedAlgo<'_> {
    fn memory_extra(&self, rank: usize) -> usize {
        planned_memory_extra(&self.plan, self.exec.k, rank)
    }

    fn execute(&self, ctx: &mut RankCtx) -> Result<Vec<f64>, RankError> {
        let rank = ctx.rank();
        let (plan, b_block, config, exec) =
            (&self.plan, &self.b_blocks[rank], self.config, &self.exec);
        match &self.nonzeros {
            RankNonzeros::Prepared(matrices) => {
                let open = |_: &Pool, _: &BlockRows<'_>, _: &mut [Scalar]| Ok(&matrices[rank]);
                Ok(twoface_rank(ctx, open, plan, b_block, config, exec)?)
            }
            RankNonzeros::Slices(a) => {
                let open = |pool: &Pool, rows: &BlockRows<'_>, c_local: &mut [Scalar]| {
                    let c_local = exec.compute.then_some(c_local);
                    SliceSource::open(a, plan, rank, config.row_panel_height, pool, rows, c_local)
                };
                twoface_rank(ctx, open, plan, b_block, config, exec)
            }
        }
    }
}

/// Where [`twoface_rank`] reads one rank's sparse structures from: A's row
/// slice ([`SliceSource`]), the prepared [`RankMatrices`], the same under a
/// per-epoch edge mask ([`crate::sampling`]), or a streamed run's store file
/// ([`crate::stream`]). Internal iteration lets the resident sources lend
/// their stripes while the filtering and disk-backed sources refill one
/// reused stripe.
pub(crate) trait StripeSource {
    /// What reading can fail with besides the transfers the visitor issues.
    type Error: From<NetError>;

    /// Visits the asynchronous stripes in ascending stripe order.
    fn for_each_async(
        &mut self,
        visit: impl FnMut(&AsyncStripe) -> Result<(), Self::Error>,
    ) -> Result<(), Self::Error>;

    /// The sync/local nonzeros the sync compute charge counts, and the
    /// non-empty row panels they occupy.
    fn sync_counts(&self) -> (usize, usize);

    /// Algorithm 2 over the sync/local nonzeros, after the async lane: adds
    /// their products with the `B` rows of `rows` into `c_local`, fanning
    /// out over `pool`. Each output row's contributions are summed in
    /// row-major entry order and flushed once, whatever the source.
    fn sync_compute(
        &mut self,
        pool: &Pool,
        rows: &BlockRows<'_>,
        c_local: &mut [Scalar],
        k: usize,
    ) -> Result<(), Self::Error>;
}

impl StripeSource for &RankMatrices {
    type Error = NetError;

    fn for_each_async(
        &mut self,
        visit: impl FnMut(&AsyncStripe) -> Result<(), NetError>,
    ) -> Result<(), NetError> {
        self.asynchronous.stripes().iter().try_for_each(visit)
    }

    fn sync_counts(&self) -> (usize, usize) {
        (self.sync_local.nnz(), self.sync_local.num_nonempty_panels())
    }

    fn sync_compute(
        &mut self,
        pool: &Pool,
        rows: &BlockRows<'_>,
        c_local: &mut [Scalar],
        k: usize,
    ) -> Result<(), NetError> {
        par_sync_panels(pool, self.sync_local.entries(), rows, c_local, k);
        Ok(())
    }
}

/// [`StripeSource`] over one rank's row slice of the row-sorted `A`, for
/// runs without prepared structures. Opening it is the rank's one walk of
/// the slice, a routing walk ([`par_route_rows`]) run once the sync lane's
/// multicasts are in: it sums the sync/local nonzeros into `C`, buckets the
/// asynchronous stripes' nonzeros row-major, and counts the sync/local
/// nonzeros and the row panels that hold them. A row that also holds async
/// nonzeros keeps its sum in a [`Stash`] until [`StripeSource::sync_compute`]
/// adds it after the async lane, the order a prepared run adds in. Stripes,
/// counts and `C` equal those of a run over the [`RankMatrices`] built from
/// the same slice, bit for bit.
pub(crate) struct SliceSource {
    asynchronous: AsyncMatrix,
    stash: Stash,
    sync_nnz: usize,
    nonempty_panels: usize,
}

impl SliceSource {
    /// Opens `rank`'s row slice of `a` under `plan` by walking it once over
    /// `pool`, with row panels of `panel_height` rows: the sync/local
    /// nonzeros read their `B` rows from `rows` and add into `c_local`, if
    /// given (a structural run routes and counts only).
    ///
    /// # Errors
    ///
    /// [`RankError::Unclassified`] for the first nonzero, row-major, in a
    /// stripe the plan never classified for `rank`.
    pub(crate) fn open(
        a: &CooMatrix,
        plan: &PartitionPlan,
        rank: usize,
        panel_height: usize,
        pool: &Pool,
        rows: &BlockRows<'_>,
        c_local: Option<&mut [Scalar]>,
    ) -> Result<SliceSource, RankError> {
        let row_range = plan.layout().row_range(rank);
        let entries = row_slice(a, row_range.clone());
        let routes = Routes::new(plan, rank);
        // The plan's profile sizes each bucket exactly, and bounds the walk's
        // other buffers, when it profiled this slice; a plan from another
        // matrix only loses the hint.
        let profile = plan.profile(rank);
        let profiled = profile.total_nnz() == entries.len();
        let hints: Vec<usize> = routes
            .async_stripes()
            .iter()
            .map(|&stripe| profile.stripe(stripe).filter(|_| profiled).map_or(0, |s| s.nnz))
            .collect();
        let buckets = hints.iter().map(|&hint| Vec::with_capacity(hint)).collect();
        let slice = RankSlice {
            entries,
            origin: row_range.start,
            local_rows: row_range.len(),
            routes: &routes,
            panel_height,
        };
        let routed = par_route_rows(pool, &slice, rows, buckets, hints.iter().sum(), c_local)?;
        Ok(SliceSource {
            asynchronous: AsyncMatrix::from_buckets(routes.async_stripes(), routed.buckets),
            stash: routed.stash,
            sync_nnz: routed.sync_nnz,
            nonempty_panels: routed.nonempty_panels,
        })
    }
}

impl StripeSource for SliceSource {
    type Error = RankError;

    fn for_each_async(
        &mut self,
        visit: impl FnMut(&AsyncStripe) -> Result<(), RankError>,
    ) -> Result<(), RankError> {
        self.asynchronous.stripes().iter().try_for_each(visit)
    }

    fn sync_counts(&self) -> (usize, usize) {
        (self.sync_nnz, self.nonempty_panels)
    }

    /// The walk flushed every row the async lane never adds into; what is
    /// left are the stashed sums of the rows it does.
    fn sync_compute(
        &mut self,
        _: &Pool,
        _: &BlockRows<'_>,
        c_local: &mut [Scalar],
        k: usize,
    ) -> Result<(), RankError> {
        self.stash.add_into(c_local, k);
        Ok(())
    }
}

/// The sync lane's transfer phase (Algorithm 1, lines 5–8), shared with
/// SDDMM, whose `Y` rows travel exactly as SpMM's `B` rows do. Every rank
/// holds the replicated multicast metadata, so the whole phase is one
/// multicast chain: a step per communicated stripe in the canonical global
/// order — which keeps every rank's collective sequence consistent, as MPI
/// requires — rooted at the stripe's owner, with destinations borrowed from
/// the plan. Returns this rank's own block plus every received stripe as
/// one row source.
///
/// The own block is held only over the stripes the plan classified for this
/// rank, as runs of consecutive stripes, so a held block always stands for
/// a classified stripe: a one-shot routing walk that meets a nonzero in an
/// own stripe the plan never classified misses every block and reports it.
/// Every other reader looks up only the columns of classified stripes.
pub(crate) fn sync_multicasts<'p>(
    ctx: &mut RankCtx,
    plan: &'p PartitionPlan,
    b_block: &Arc<Vec<f64>>,
    k: usize,
) -> Result<BlockRows<'p>, NetError> {
    let rank = ctx.rank();
    let layout = plan.layout();
    let my_cols = layout.col_range(rank);
    let steps: Vec<MulticastStep<'_>> = (0..layout.num_stripes())
        .filter_map(|stripe| {
            let dests = plan.multicast_destinations(stripe);
            // Nobody needs an empty-destination stripe synchronously: it is
            // never communicated.
            let root = layout.stripe_owner(stripe);
            (!dests.is_empty()).then_some(MulticastStep { tag: stripe as u64, root, dests })
        })
        .collect();
    let received = ctx.multicast_chain(&steps, |i| {
        // Zero-copy: the multicast payload is a view into the resident B
        // block, not a materialised stripe copy.
        let cols = layout.stripe_cols(steps[i].tag as usize);
        let lo = (cols.start - my_cols.start) * k;
        let hi = (cols.end - my_cols.start) * k;
        Payload::from(Arc::clone(b_block)).subslice(lo..hi)
    })?;
    let mut stripe_buffers = BlockRows::new(layout, k);
    let own = layout.stripes_of_owner(rank);
    let classified: Vec<usize> = plan
        .classification(rank)
        .classes
        .iter()
        .map(|&(stripe, _)| stripe)
        .filter(|stripe| own.contains(stripe))
        .collect();
    for run in classified.chunk_by(|a, b| a + 1 == *b) {
        let cols = layout.stripe_cols(run[0]).start..layout.stripe_cols(run[run.len() - 1]).end;
        let lo = (cols.start - my_cols.start) * k;
        let hi = (cols.end - my_cols.start) * k;
        stripe_buffers.add_block(cols, Payload::from(Arc::clone(b_block)).subslice(lo..hi));
    }
    for (i, buf) in received {
        let step = &steps[i];
        if step.root != rank {
            stripe_buffers.add_block(layout.stripe_cols(step.tag as usize), buf);
        }
    }
    Ok(stripe_buffers)
}

/// Executes Two-Face on one rank over the source `open` returns. Returns
/// the rank's flat `C` block, or the first unrecoverable fault.
///
/// The source is opened after the sync lane's multicast chain, the rank's
/// last collective, so a source that fails to open fails this rank alone:
/// no peer is left waiting for it at a rendezvous. `open` receives the
/// rank's pool, the `B` rows the multicasts left and the zeroed `C` block:
/// a [`SliceSource`] runs its routing walk there, adding the sync sums of
/// the rows the async lane never touches, so the opening's host time rides
/// on the sync span, with the sync compute's.
pub(crate) fn twoface_rank<S: StripeSource>(
    ctx: &mut RankCtx,
    open: impl FnOnce(&Pool, &BlockRows<'_>, &mut [Scalar]) -> Result<S, S::Error>,
    plan: &PartitionPlan,
    b_block: &Arc<Vec<f64>>,
    config: &TwoFaceConfig,
    opts: &ExecOpts,
) -> Result<Vec<f64>, S::Error> {
    let rank = ctx.rank();
    let layout = plan.layout();
    let k = opts.k;
    // Real execution workers for this rank's local kernels; orthogonal to
    // the modeled thread counts in `config` (see `crate::pool`).
    let pool = Pool::new(opts.workers);

    // Window exposing this rank's B block for fine-grained gets; creation is
    // the "initial setup of data structures for MPI" that Figure 10 labels
    // Other.
    let win = ctx.create_window(Arc::clone(b_block))?;
    let stripe_buffers = sync_multicasts(ctx, plan, b_block, k)?;
    let mut c_local = vec![0.0; layout.row_range(rank).len() * k];
    let wall = ctx.wall_time_enabled() && opts.compute;
    let opening = WallTimer::start(wall);
    let mut source = open(&pool, &stripe_buffers, &mut c_local)?;
    let open_nanos = opening.elapsed_nanos();

    // --- Async lane: Algorithm 3 per asynchronous stripe. ---
    let max_distance = config.max_coalesce_distance(k);
    // §7.1's rejected row-major variant is charged a runtime sort+dedup to
    // identify the required rows before the transfer can even be issued, and
    // buffered compute (row-panel throughput on the async pool) instead of
    // atomic-per-nonzero. Only the charges differ: both layouts run the one
    // async kernel below, so `C` is bit-identical.
    let row_major = config.async_layout == AsyncLayout::RowMajor;
    // Arena scratch shared across stripes: the fetch buffer cycles through
    // `FetchedRows` and back, and the owner-local column list is rebuilt in
    // place — no per-stripe allocations on the async lane's steady state.
    let mut fetch_scratch: Vec<f64> = Vec::new();
    let mut owner_local: Vec<usize> = Vec::new();
    source.for_each_async(|stripe| {
        let nnz = stripe.entries.len();
        if nnz == 0 {
            return Ok(()); // fully masked out: no transfer at all
        }
        let owner = layout.stripe_owner(stripe.stripe);
        debug_assert_ne!(owner, rank, "async stripes are remote-input by construction");
        let col_base = layout.col_range(owner).start;
        owner_local.clear();
        owner_local.extend(stripe.unique_cols.iter().map(|&c| c as usize - col_base));
        if row_major {
            let identify = ctx.cost().identify_cost(nnz);
            ctx.advance(Lane::Async, identify, PhaseClass::AsyncComp);
        }
        let (runs, _padding) = coalesce_rows(&owner_local, max_distance);
        if ctx.events_enabled() {
            for &(_, len) in &runs {
                ctx.observe("coalesced_run_rows", len as u64);
            }
        }
        ctx.win_rget_rows_into(win, owner, &runs, k, &mut fetch_scratch)?;
        let compute_cost = if row_major {
            let per_element = ctx.cost().gamma_sync
                * (config.sync_comp_threads as f64 / config.async_comp_threads as f64);
            per_element * (nnz * k) as f64 + ctx.cost().kappa_async
        } else {
            ctx.cost().async_compute_cost(nnz, k, 1)
        };
        // The real kernel runs before its span is charged so its measured
        // wall time can ride on the event; the simulated clocks advance by
        // exactly the same amount either way.
        let timer = WallTimer::start(wall);
        if opts.compute {
            let rows_src = FetchedRows::new(&runs, col_base, std::mem::take(&mut fetch_scratch), k);
            // Per output row, the row-major entries apply contributions in
            // the ascending-column order of Algorithm 3's column-major loop,
            // so the result is bit-identical to it for any worker count.
            let spans = par_async_stripe(&pool, &stripe.entries, &rows_src, &mut c_local, k);
            // Span fan-out scales with the host pool, so it lives in the
            // host-profiling namespace, gated with wall time.
            if ctx.wall_time_enabled() {
                ctx.observe("host.kernel_spans", spans as u64);
            }
            // Recycle the fetch allocation for the next stripe.
            fetch_scratch = rows_src.into_data();
        }
        ctx.advance_span(
            Lane::Async,
            compute_cost,
            PhaseClass::AsyncComp,
            (nnz * k) as u64,
            timer.elapsed_nanos(),
        );
        Ok(())
    })?;

    // --- Sync lane: row-panel compute (Algorithm 1 lines 15-19). ---
    let (sync_nnz, nonempty_panels) = source.sync_counts();
    if sync_nnz > 0 {
        let timer = WallTimer::start(wall);
        if opts.compute {
            source.sync_compute(&pool, &stripe_buffers, &mut c_local, k)?;
        }
        let cost = ctx.cost().sync_compute_cost(sync_nnz, k, nonempty_panels);
        let nanos = timer.elapsed_nanos().zip(open_nanos).map(|(compute, open)| compute + open);
        ctx.advance_span(Lane::Sync, cost, PhaseClass::SyncComp, (sync_nnz * k) as u64, nanos);
    }
    Ok(c_local)
}
