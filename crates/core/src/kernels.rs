//! Local SpMM kernels and dense-row sources.
//!
//! Kernels are written against a [`RowSource`] — "give me row `c_id` of `B`"
//! — so the same code runs over the local block, received dense stripes,
//! replicated blocks, or fine-grained fetched rows. Two kernels mirror the
//! paper's two nonzero layouts:
//!
//! * [`sync_panel_kernel`] — Algorithm 2: row-major traversal with a
//!   thread-local accumulation buffer flushed once per output row;
//! * [`async_stripe_kernel`] — Algorithm 3's loop: each product added
//!   straight into `C` (the pattern that costs one atomic per nonzero on
//!   real hardware), over a stripe's row-major entries, which reach each
//!   output row in the ascending-column order of the paper's column-major
//!   loop.
//!
//! Both have work-sharing parallel drivers ([`par_sync_panels`],
//! [`par_async_stripe`]) that split `C` into disjoint row ranges so any
//! worker count produces output bit-identical to the serial kernels, and
//! both specialize their inner loops for the paper's dense widths
//! `K ∈ {8, 32, 128}` (fixed-size array arithmetic the compiler unrolls and
//! vectorizes; other widths take a generic fallback).
//!
//! The dense loops of both kernels and of the routing walk below are
//! compiled once per vector instruction set — AVX-512F, AVX2 and the
//! target's baseline — and each call runs the widest one the host's CPU
//! supports, detected at run time. Each body is written once and only the
//! vector width differs: every element of a row's sum is still multiplied,
//! rounded and then added in the same order (entry order in the row-panel
//! loop, ascending column in the async loop), and Rust never contracts a
//! multiply and an add into a fused multiply-add, so `C` is bit-identical
//! on every host. The serial oracle ([`crate::reference_spmm`]) and SDDMM's
//! dot products stay scalar: the oracle is what the kernels are checked
//! against, and a dot product is one sequential sum that wider vectors
//! would only speed up by reordering it.
//!
//! Row sources are `Sync`: lookup state lives in a per-caller
//! [`RowCursor`], not in the source, so concurrent workers never thrash a
//! shared cursor. The cursor caches the block that satisfied the previous
//! lookup as a column range and a row slice, so a hit is a range check and
//! a slice. A source resolves only the misses: [`BlockRows`] through a
//! per-stripe slot table, in O(1) however many blocks it holds, and
//! [`FetchedRows`] by a binary search over one stripe's few fetched runs.
//!
//! A one-shot Two-Face rank, which has no prepared structures, runs the
//! row-panel loop as a *routing walk* (`par_route_rows`) over its row slice
//! of `A`: one pass sums the nonzeros whose `B` rows [`BlockRows`] holds,
//! hands each asynchronous nonzero to its stripe's bucket, and counts what
//! the sync lane's charge needs. A cursor hit can only be a held block; a
//! miss looks the column's stripe up once and finds the block holding it,
//! the stripe's async bucket, or no class at all, which fails the rank. A
//! row that also holds async nonzeros keeps its sum in a stash until the
//! async lane has added into it.

use crate::coalesce::RowRun;
use crate::error::RankError;
use crate::format::{Route, Routes};
use crate::pool::Pool;
use std::ops::Range;
use twoface_matrix::{Entry, Scalar, SmallTriplet, Triplet};
use twoface_net::Payload;
use twoface_partition::OneDimLayout;

/// Per-caller lookup cursor: the block (or run) that satisfied the last
/// lookup, cached as its first global column, its column count and its
/// rows. Kernels walk columns in runs, so consecutive lookups mostly hit the
/// cached block, and a hit reads only the cursor: a range check and a
/// slice, no indirection through the source. Each worker holds its own
/// cursor, so parallel kernels keep the fast path without sharing mutable
/// state.
#[derive(Debug, Clone, Copy, Default)]
pub struct RowCursor<'s> {
    start: usize,
    len: usize,
    rows: &'s [Scalar],
}

impl<'s> RowCursor<'s> {
    /// A cursor over the block holding global columns `cols`, whose rows are
    /// `rows` (`K` scalars per column, in column order).
    pub fn new(cols: Range<usize>, rows: &'s [Scalar]) -> RowCursor<'s> {
        RowCursor { start: cols.start, len: cols.len(), rows }
    }
}

/// A source of dense `B` rows addressed by global column id.
///
/// Implementations are immutable after construction and `Sync`, so one
/// source can serve many workers concurrently; per-caller lookup state goes
/// through the [`RowCursor`] each caller owns. A source implements only the
/// miss, [`RowSource::resolve`]; the cursor serves the hits.
pub trait RowSource: Sync {
    /// The dense column count `K`.
    fn k(&self) -> usize;

    /// A cursor over the block (or run) holding row `col`.
    ///
    /// # Panics
    ///
    /// Panics if this source does not hold row `col` — asking for a row that
    /// was never transferred is an algorithm bug, not a recoverable error.
    fn resolve(&self, col: usize) -> RowCursor<'_>;

    /// Row `col` of `B` as a `K`-element slice, served from `cursor` when it
    /// holds the row and resolved (and cached in `cursor`) otherwise.
    ///
    /// # Panics
    ///
    /// Same condition as [`RowSource::resolve`].
    #[inline]
    fn row_with<'s>(&'s self, cursor: &mut RowCursor<'s>, col: usize) -> &'s [Scalar] {
        let mut offset = col.wrapping_sub(cursor.start);
        if offset >= cursor.len {
            *cursor = self.resolve(col);
            offset = col - cursor.start;
        }
        let k = self.k();
        &cursor.rows[offset * k..(offset + 1) * k]
    }

    /// Cursor-less convenience lookup (a fresh [`RowCursor`] per call);
    /// hot loops should hold a cursor and call [`RowSource::row_with`].
    ///
    /// # Panics
    ///
    /// Same condition as [`RowSource::resolve`].
    fn row(&self, col: usize) -> &[Scalar] {
        self.row_with(&mut RowCursor::default(), col)
    }
}

/// A [`RowSource`] over a set of contiguous block buffers, each covering
/// whole stripes of a [`OneDimLayout`] — the view of `B` an algorithm holds
/// after its transfers: its own column block plus received column blocks or
/// dense stripes.
///
/// Every rank knows where its blocks land before the kernel runs, so a miss
/// is O(1): the column's stripe ([`OneDimLayout::stripe_of_col`]) indexes a
/// per-stripe slot table naming the block that holds it.
#[derive(Debug, Clone)]
pub struct BlockRows<'l> {
    k: usize,
    layout: &'l OneDimLayout,
    /// `(col_start, col_end, buffer)`, in the order they were added.
    blocks: Vec<(usize, usize, Payload)>,
    /// Per stripe of `layout`, the index in `blocks` of the block holding
    /// it, or [`NO_BLOCK`].
    slot_of_stripe: Vec<usize>,
}

/// The slot-table entry of a stripe no block holds; never a valid index.
const NO_BLOCK: usize = usize::MAX;

/// What a routing walk's cursor miss finds in one lookup of the column's
/// stripe.
enum Miss<'s> {
    /// The block holding the stripe: a sync or local-input nonzero.
    Held(RowCursor<'s>),
    /// The stripe is asynchronous: the nonzero goes to this bucket.
    Async(usize),
    /// The plan never classified this stripe for the rank.
    Unclassified(usize),
}

impl<'l> BlockRows<'l> {
    /// Creates an empty source for `K` columns over `layout`'s stripes.
    pub fn new(layout: &'l OneDimLayout, k: usize) -> BlockRows<'l> {
        assert!(k > 0, "K must be positive");
        BlockRows {
            k,
            layout,
            blocks: Vec::new(),
            slot_of_stripe: vec![NO_BLOCK; layout.num_stripes()],
        }
    }

    /// Adds a block buffer covering global columns `cols`, which must start
    /// and end on stripe boundaries of the layout: a column block
    /// ([`OneDimLayout::col_range`]) or one stripe
    /// ([`OneDimLayout::stripe_cols`]). Accepts anything convertible into a
    /// [`Payload`] — an owned `Vec`, a shared `Arc<Vec<f64>>`, or a zero-copy
    /// view returned by a collective.
    ///
    /// # Panics
    ///
    /// Panics if the buffer length is not `cols.len() * K`, if `cols` does
    /// not sit on stripe boundaries, or if another block already holds one
    /// of its stripes.
    pub fn add_block(&mut self, cols: Range<usize>, buffer: impl Into<Payload>) {
        let buffer = buffer.into();
        assert_eq!(buffer.len(), cols.len() * self.k, "block buffer for {cols:?} has wrong length");
        if cols.is_empty() {
            return; // an empty column block holds no stripe
        }
        let layout = self.layout;
        let first = layout.stripe_of_col(cols.start);
        let last = layout.stripe_of_col(cols.end - 1);
        assert!(
            layout.stripe_cols(first).start == cols.start
                && layout.stripe_cols(last).end == cols.end,
            "block {cols:?} does not sit on stripe boundaries"
        );
        for stripe in first..=last {
            let slot = &mut self.slot_of_stripe[stripe];
            assert_eq!(*slot, NO_BLOCK, "stripe {stripe} already has a block");
            *slot = self.blocks.len();
        }
        self.blocks.push((cols.start, cols.end, buffer));
    }

    /// Whether some block holds column `col`.
    pub fn contains(&self, col: usize) -> bool {
        col < self.layout.cols() && self.held(self.layout.stripe_of_col(col)).is_some()
    }

    /// A cursor over the block holding `stripe`, if one does.
    fn held(&self, stripe: usize) -> Option<RowCursor<'_>> {
        let (start, end, buf) = self.blocks.get(self.slot_of_stripe[stripe])?;
        Some(RowCursor::new(*start..*end, buf))
    }

    /// A routing walk's miss on column `col` of the layout: the block
    /// holding its stripe, else the stripe's route.
    ///
    /// # Panics
    ///
    /// Panics if the stripe is routed to the sync lane but no block holds
    /// it.
    fn route(&self, col: usize, routes: &Routes) -> Miss<'_> {
        let stripe = self.layout.stripe_of_col(col);
        match (self.held(stripe), routes.of(stripe)) {
            (Some(cursor), _) => Miss::Held(cursor),
            (None, Route::Async(bucket)) => Miss::Async(bucket),
            (None, Route::Unclassified) => Miss::Unclassified(stripe),
            (None, Route::SyncLocal) => panic!("no block holds B row {col}"),
        }
    }
}

impl RowSource for BlockRows<'_> {
    fn k(&self) -> usize {
        self.k
    }

    fn resolve(&self, col: usize) -> RowCursor<'_> {
        let stripe = (col < self.layout.cols()).then(|| self.layout.stripe_of_col(col));
        stripe
            .and_then(|stripe| self.held(stripe))
            .unwrap_or_else(|| panic!("no block holds B row {col}"))
    }
}

/// A [`RowSource`] over rows fetched by a coalesced one-sided get.
///
/// Maps global column ids through a flat, sorted run table to slots in the
/// received buffer (which may include padding rows from gap coalescing).
/// Each run is `(col_start, col_end, slot_base)`: global columns
/// `col_start..col_end` occupy consecutive slots starting at `slot_base`.
/// A miss binary-searches the table — one stripe's few runs — and the
/// caller's [`RowCursor`] caches the run it finds; the async kernel walks
/// columns in ascending order, so nearly every lookup after the first in a
/// run is a cursor hit.
#[derive(Debug, Clone)]
pub struct FetchedRows {
    k: usize,
    data: Vec<Scalar>,
    runs: Vec<(usize, usize, usize)>,
    num_rows: usize,
}

impl FetchedRows {
    /// Wraps a buffer fetched with `runs` (in *owner-local* row coordinates)
    /// from a block whose first global column is `col_base`.
    ///
    /// # Panics
    ///
    /// Panics if the buffer length does not match the runs.
    pub fn new(runs: &[RowRun], col_base: usize, data: Vec<Scalar>, k: usize) -> FetchedRows {
        assert!(k > 0, "K must be positive");
        let total_rows: usize = runs.iter().map(|&(_, n)| n).sum();
        assert_eq!(data.len(), total_rows * k, "fetched buffer length mismatch");
        let mut table = Vec::with_capacity(runs.len());
        let mut slot = 0usize;
        for &(first, n) in runs {
            table.push((col_base + first, col_base + first + n, slot));
            slot += n;
        }
        FetchedRows { k, data, runs: table, num_rows: total_rows }
    }

    /// Number of rows held (needed + padding).
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Consumes the source and returns its row buffer, allocation intact.
    ///
    /// Per-stripe fetch loops recycle this buffer through
    /// [`RankCtx::win_rget_rows_into`](twoface_net::RankCtx::win_rget_rows_into)
    /// instead of allocating a fresh vector per stripe (arena reuse).
    pub fn into_data(self) -> Vec<Scalar> {
        self.data
    }
}

impl RowSource for FetchedRows {
    fn k(&self) -> usize {
        self.k
    }

    fn resolve(&self, col: usize) -> RowCursor<'_> {
        let i = self.runs.partition_point(|&(start, _, _)| start <= col);
        match i.checked_sub(1).map(|i| self.runs[i]) {
            Some((start, end, base)) if col < end => {
                RowCursor::new(start..end, &self.data[base * self.k..(base + end - start) * self.k])
            }
            _ => panic!("B row {col} was not fetched"),
        }
    }
}

/// A vector instruction set the dense kernels are compiled for.
#[derive(Debug, Clone, Copy)]
enum Isa {
    /// The target's baseline: two doubles per instruction on x86-64.
    Baseline,
    /// AVX2: four doubles per instruction.
    Avx2,
    /// AVX-512F: eight doubles per instruction.
    Avx512f,
}

impl Isa {
    /// Every ISA, widest first.
    const ALL: [Isa; 3] = [Isa::Avx512f, Isa::Avx2, Isa::Baseline];

    /// Whether this host's CPU supports `self`, and its OS saves the
    /// registers `self` uses: the one detection.
    fn supported(self) -> bool {
        #[cfg(target_arch = "x86_64")]
        use std::arch::is_x86_feature_detected as has;
        match self {
            Isa::Baseline => true,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => has!("avx2"),
            // Enabling `avx512f` also enables `avx2`, `fma` and `f16c`.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512f => has!("avx512f") && has!("avx2") && has!("fma") && has!("f16c"),
            #[cfg(not(target_arch = "x86_64"))]
            Isa::Avx2 | Isa::Avx512f => false,
        }
    }

    /// The widest ISA this host supports.
    fn host() -> Isa {
        Isa::ALL.into_iter().find(|isa| isa.supported()).unwrap_or(Isa::Baseline)
    }

    /// Runs `kernel` compiled for `self`: the one dispatch to the per-ISA
    /// copies. `kernel` must be an `#[inline(always)]` closure, so that its
    /// whole loop is compiled into each copy ([`dispatch_k!`] makes it one).
    ///
    /// # Panics
    ///
    /// Panics if the host does not support `self`.
    #[allow(unsafe_code)]
    fn run(self, kernel: impl FnOnce()) {
        match self {
            Isa::Baseline => kernel(),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 if self.supported() => {
                // SAFETY: `supported` just detected AVX2 on this CPU, and OS
                // support for its registers, with `is_x86_feature_detected!`.
                unsafe { avx2(kernel) }
            }
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512f if self.supported() => {
                // SAFETY: `supported` just detected AVX-512F and every feature
                // it enables on this CPU, and OS support for their registers,
                // with `is_x86_feature_detected!`.
                unsafe { avx512f(kernel) }
            }
            _ => panic!("this host does not support {self:?}"),
        }
    }
}

/// The AVX2 copy of `kernel`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn avx2(kernel: impl FnOnce()) {
    kernel()
}

/// The AVX-512F copy of `kernel`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn avx512f(kernel: impl FnOnce()) {
    kernel()
}

/// Runs `$body` compiled for the ISA `$isa` ([`Isa::run`]), with `$fixed`
/// bound to a compile-time dense width for the paper's `K ∈ {8, 32, 128}`,
/// falling back to the generic path (with `$fixed = 0`, meaning "use the
/// runtime `k`") for anything else — through `$generic` when given, else
/// through `$body` too. The fixed-width instantiations run the inner
/// multiply-then-add loops over `[Scalar; K]` arrays, which the compiler
/// fully unrolls and vectorizes at the ISA's width.
macro_rules! dispatch_k {
    ($isa:expr, $k:expr, $fixed:ident, $body:expr) => {
        dispatch_k!($isa, $k, $fixed, $body, $body)
    };
    ($isa:expr, $k:expr, $fixed:ident, $body:expr, $generic:expr) => {
        $isa.run(
            #[inline(always)]
            || match $k {
                8 => {
                    const $fixed: usize = 8;
                    $body
                }
                32 => {
                    const $fixed: usize = 32;
                    $body
                }
                128 => {
                    const $fixed: usize = 128;
                    $body
                }
                _ => {
                    const $fixed: usize = 0;
                    $generic
                }
            },
        )
    };
}

/// `acc += v * brow`, specialized when `F > 0` is the compile-time width.
#[inline(always)]
fn axpy<const F: usize>(acc: &mut [Scalar], brow: &[Scalar], v: Scalar) {
    if F > 0 {
        let acc: &mut [Scalar; F] = (&mut acc[..F]).try_into().expect("width checked by caller");
        let brow: &[Scalar; F] = (&brow[..F]).try_into().expect("row sources yield K-wide rows");
        for j in 0..F {
            acc[j] += v * brow[j];
        }
    } else {
        for (a, b) in acc.iter_mut().zip(brow) {
            *a += v * *b;
        }
    }
}

/// Algorithm 2: processes one row panel with a thread-local accumulation
/// buffer, flushing into the local `C` slab once per output row.
///
/// `c_local` is the node's flat `local_rows x K` output block; entry rows are
/// node-local.
///
/// # Panics
///
/// Panics if an entry's row lies outside `c_local` or a needed `B` row is
/// missing from `rows`.
pub fn sync_panel_kernel<E: Entry>(
    panel: &[E],
    rows: &impl RowSource,
    c_local: &mut [Scalar],
    k: usize,
) {
    sync_panel_kernel_at(panel, rows, c_local, k, 0);
}

/// [`sync_panel_kernel`] over a chunk of `C`: entry rows are still
/// node-local, but `c_chunk` starts at local row `row_base`. This is the
/// form the parallel driver hands each worker together with its disjoint
/// panel chunk.
///
/// # Panics
///
/// Same conditions as [`sync_panel_kernel`], with rows measured relative to
/// `row_base`.
pub fn sync_panel_kernel_at<E: Entry>(
    panel: &[E],
    rows: &impl RowSource,
    c_chunk: &mut [Scalar],
    k: usize,
    row_base: usize,
) {
    sync_panel_for(Isa::host(), panel, rows, c_chunk, k, row_base);
}

/// [`sync_panel_kernel_at`] compiled for `isa`.
fn sync_panel_for<E: Entry>(
    isa: Isa,
    panel: &[E],
    rows: &impl RowSource,
    c_chunk: &mut [Scalar],
    k: usize,
    row_base: usize,
) {
    if panel.is_empty() {
        return;
    }
    dispatch_k!(
        isa,
        k,
        FIXED,
        sync_rows::<FIXED, E>(panel, rows, c_chunk, k, row_base, [0.0; FIXED]),
        sync_rows::<FIXED, E>(panel, rows, c_chunk, k, row_base, vec![0.0; k])
    );
}

/// Algorithm 2's loop over a non-empty panel, accumulating each row in
/// `acc` and flushing it once per row, at the compile-time width `F` when
/// `F > 0`. A fixed width passes a local `[Scalar; F]`, which the compiler
/// keeps out of memory once the loops are unrolled; the generic width
/// passes one buffer of `k`.
#[inline(always)]
fn sync_rows<const F: usize, E: Entry>(
    panel: &[E],
    rows: &impl RowSource,
    c_chunk: &mut [Scalar],
    k: usize,
    row_base: usize,
    mut acc: impl AsMut<[Scalar]>,
) {
    let acc = acc.as_mut();
    let mut cursor = RowCursor::default();
    let mut prev_row = panel[0].row();
    for t in panel {
        if t.row() != prev_row {
            flush::<F>(c_chunk, prev_row - row_base, acc, k);
            prev_row = t.row();
        }
        axpy::<F>(acc, rows.row_with(&mut cursor, t.col()), t.val());
    }
    flush::<F>(c_chunk, prev_row - row_base, acc, k);
}

/// The single "atomic" accumulation of a finished row buffer into `C`
/// (AtomicAdd in Algorithm 2 — each output row is owned by exactly one
/// worker, so plain addition is exact), at the fixed width `F` when
/// `F > 0`.
#[inline(always)]
fn flush<const F: usize>(c_local: &mut [Scalar], row: usize, acc: &mut [Scalar], k: usize) {
    let out = &mut c_local[row * k..(row + 1) * k];
    if F > 0 {
        let out: &mut [Scalar; F] = out.try_into().expect("width checked by caller");
        let acc: &mut [Scalar; F] = (&mut acc[..F]).try_into().expect("width checked by caller");
        for j in 0..F {
            out[j] += acc[j];
            acc[j] = 0.0;
        }
    } else {
        for (o, a) in out.iter_mut().zip(acc.iter_mut()) {
            *o += *a;
            *a = 0.0;
        }
    }
}

/// Algorithm 3's compute loop over an asynchronous stripe's entries,
/// accumulating each product straight into `C` (one atomic per nonzero on
/// real hardware; the cost model charges `γ_A` accordingly). Each output
/// row receives its products in entry order.
///
/// # Panics
///
/// Panics if an entry's row lies outside `c_local` or a needed `B` row is
/// missing from `rows`.
pub fn async_stripe_kernel<E: Entry>(
    entries: &[E],
    rows: &impl RowSource,
    c_local: &mut [Scalar],
    k: usize,
) {
    async_stripe_kernel_at(entries, rows, c_local, k, 0);
}

/// [`async_stripe_kernel`] over a chunk of `C` starting at local row
/// `row_base` — the per-worker form used by [`par_async_stripe`].
///
/// # Panics
///
/// Same conditions as [`async_stripe_kernel`], with rows measured relative
/// to `row_base`.
pub fn async_stripe_kernel_at<E: Entry>(
    entries: &[E],
    rows: &impl RowSource,
    c_chunk: &mut [Scalar],
    k: usize,
    row_base: usize,
) {
    async_stripe_for(Isa::host(), entries, rows, c_chunk, k, row_base);
}

/// [`async_stripe_kernel_at`] compiled for `isa`.
fn async_stripe_for<E: Entry>(
    isa: Isa,
    entries: &[E],
    rows: &impl RowSource,
    c_chunk: &mut [Scalar],
    k: usize,
    row_base: usize,
) {
    dispatch_k!(isa, k, FIXED, {
        let mut cursor = RowCursor::default();
        for t in entries {
            let brow = rows.row_with(&mut cursor, t.col());
            let out = &mut c_chunk[(t.row() - row_base) * k..(t.row() - row_base + 1) * k];
            axpy::<FIXED>(out, brow, t.val());
        }
    });
}

/// Minimum `nnz * K` products before a kernel fans out to the pool — below
/// this the scoped-spawn overhead exceeds the work.
pub(crate) const PAR_MIN_PRODUCTS: usize = 1 << 15;

/// Splits `entries` (sorted by row, rows counted from `origin`) into at
/// most `chunks` spans of near-equal nonzero count whose boundaries fall on
/// row boundaries, and returns `(entry_range, row_range)` per span, rows
/// local (relative to `origin`). Row-aligned boundaries are what make the
/// parallel kernels exact: every output row is touched by exactly one
/// worker, which applies that row's contributions in the same order as a
/// serial traversal.
fn row_aligned_spans<E: Entry>(
    entries: &[E],
    origin: usize,
    local_rows: usize,
    chunks: usize,
) -> Vec<(std::ops::Range<usize>, std::ops::Range<usize>)> {
    let mut spans = Vec::with_capacity(chunks);
    let per_chunk = entries.len().div_ceil(chunks).max(1);
    let mut entry_lo = 0usize;
    let mut row_lo = 0usize;
    while entry_lo < entries.len() {
        let mut entry_hi = (entry_lo + per_chunk).min(entries.len());
        // Round the cut up to the next row boundary.
        if entry_hi < entries.len() {
            let cut_row = entries[entry_hi - 1].row();
            entry_hi += entries[entry_hi..].partition_point(|t| t.row() == cut_row);
        }
        let row_hi =
            if entry_hi == entries.len() { local_rows } else { entries[entry_hi].row() - origin };
        spans.push((entry_lo..entry_hi, row_lo..row_hi));
        entry_lo = entry_hi;
        row_lo = row_hi;
    }
    if let Some(last) = spans.last_mut() {
        last.1.end = local_rows;
    }
    spans
}

/// Runs `f(entry_span, c_chunk, row_base)` over row-aligned spans of
/// `entries_by_row`, each worker owning a disjoint `&mut` slice of
/// `c_local` whose first row is `row_base`; the parallel kernels and the
/// parallel reference oracle share it. Returns the number of spans
/// dispatched — a host execution detail (it scales with the pool width),
/// reported only through wall-time profiling, never through deterministic
/// metrics.
pub(crate) fn par_row_spans_plain<E: Entry, F>(
    pool: &Pool,
    entries_by_row: &[E],
    c_local: &mut [Scalar],
    k: usize,
    f: F,
) -> usize
where
    F: Fn(&[E], &mut [Scalar], usize) + Sync,
{
    debug_assert!(entries_by_row.windows(2).all(|w| w[0].row() <= w[1].row()), "not row-sorted");
    let local_rows = c_local.len() / k;
    // More spans than workers lets the sharing queue absorb skew.
    let spans = row_aligned_spans(entries_by_row, 0, local_rows, 4 * pool.workers());
    let span_count = spans.len();
    let mut tasks = Vec::with_capacity(spans.len());
    let mut rest = c_local;
    let mut offset = 0usize;
    for (entry_range, row_range) in spans {
        let (chunk, tail) = rest.split_at_mut((row_range.end - row_range.start) * k);
        debug_assert_eq!(offset, row_range.start * k);
        offset = row_range.end * k;
        rest = tail;
        tasks.push((entry_range, chunk, row_range.start));
    }
    pool.run_items(tasks.into_iter(), |(entry_range, chunk, row_base)| {
        f(&entries_by_row[entry_range], chunk, row_base);
    });
    span_count
}

/// Work-sharing parallel form of [`sync_panel_kernel`] over a whole
/// row-major sorted entry slice: splits `c_local` into row-aligned chunks,
/// one worker per chunk at a time. Bit-identical to running
/// [`sync_panel_kernel`] over the same entries serially, for any worker
/// count — each output row's contributions are applied by exactly one
/// worker, in entry order.
///
/// Returns the number of row-aligned spans dispatched (1 on the serial
/// fallback) — useful for wall-time profiling, but host-dependent, so
/// callers must not feed it into deterministic accounting.
///
/// # Panics
///
/// Panics if `entries` is not sorted by row, a row lies outside `c_local`,
/// or a needed `B` row is missing.
pub fn par_sync_panels<E: Entry>(
    pool: &Pool,
    entries: &[E],
    rows: &impl RowSource,
    c_local: &mut [Scalar],
    k: usize,
) -> usize {
    if pool.workers() == 1 || entries.len() * k < PAR_MIN_PRODUCTS {
        sync_panel_kernel(entries, rows, c_local, k);
        return 1;
    }
    par_row_spans_plain(pool, entries, c_local, k, |span, chunk, row_base| {
        sync_panel_kernel_at(span, rows, chunk, k, row_base);
    })
}

/// Work-sharing parallel form of [`async_stripe_kernel`].
///
/// Takes the stripe's nonzeros row-major, as [`crate::AsyncStripe`] stores
/// them, and accumulates directly into `C`, one row-aligned chunk per
/// worker. Rows never cross workers, so the result is bit-identical to the
/// serial [`async_stripe_kernel`] for any worker count; and within one
/// output row, row-major entries apply their contributions in the
/// ascending-column order of Algorithm 3's column-major loop.
///
/// Returns the dispatched span count, like [`par_sync_panels`].
///
/// # Panics
///
/// Panics if `entries` is not sorted by row, a row lies outside `c_local`,
/// or a needed `B` row is missing.
pub fn par_async_stripe<E: Entry>(
    pool: &Pool,
    entries: &[E],
    rows: &impl RowSource,
    c_local: &mut [Scalar],
    k: usize,
) -> usize {
    if pool.workers() == 1 || entries.len() * k < PAR_MIN_PRODUCTS {
        async_stripe_kernel(entries, rows, c_local, k);
        return 1;
    }
    par_row_spans_plain(pool, entries, c_local, k, |span, chunk, row_base| {
        async_stripe_kernel_at(span, rows, chunk, k, row_base);
    })
}

/// A rank's row slice of `A`, as a routing walk ([`par_route_rows`]) reads
/// it.
pub(crate) struct RankSlice<'a> {
    /// The rank's nonzeros in global coordinates, row-major.
    pub entries: &'a [Triplet],
    /// Global row of the rank's first local row.
    pub origin: usize,
    /// The rank's row count.
    pub local_rows: usize,
    /// Where each stripe's nonzeros go.
    pub routes: &'a Routes,
    /// Row-panel height, for the count of non-empty panels.
    pub panel_height: usize,
}

/// What a routing walk leaves for the rest of the rank body.
pub(crate) struct Routed {
    /// Per async bucket of the walk's [`Routes`], its nonzeros row-major,
    /// with local rows.
    pub buckets: Vec<Vec<SmallTriplet>>,
    /// The sync/local nonzeros the sync compute charge counts.
    pub sync_nnz: usize,
    /// The row panels holding them.
    pub nonempty_panels: usize,
    /// The sums of the rows that also hold async nonzeros.
    pub stash: Stash,
}

/// Row sums a routing walk must not flush yet: their rows also hold async
/// nonzeros, which the async lane adds into `C` first.
#[derive(Debug, Default)]
pub(crate) struct Stash {
    /// Local rows, ascending.
    rows: Vec<usize>,
    /// `K` sums per row of `rows`.
    sums: Vec<Scalar>,
}

impl Stash {
    /// Room for `rows` rows of `k` sums.
    fn with_capacity(rows: usize, k: usize) -> Stash {
        Stash { rows: Vec::with_capacity(rows), sums: Vec::with_capacity(rows * k) }
    }

    /// Stashes local row `row`'s sums from `acc` and clears `acc`.
    fn push(&mut self, row: usize, acc: &mut [Scalar]) {
        self.rows.push(row);
        self.sums.extend_from_slice(acc);
        acc.fill(0.0);
    }

    /// Appends `other`, whose rows follow this stash's.
    fn append(&mut self, mut other: Stash) {
        if self.rows.is_empty() {
            *self = other;
        } else {
            self.rows.append(&mut other.rows);
            self.sums.append(&mut other.sums);
        }
    }

    /// Adds each stashed sum into its row of `c_local`: the one flush the
    /// row-panel kernel makes per row, made after the async lane's adds.
    pub(crate) fn add_into(&self, c_local: &mut [Scalar], k: usize) {
        for (&row, sums) in self.rows.iter().zip(self.sums.chunks_exact(k)) {
            for (out, sum) in c_local[row * k..(row + 1) * k].iter_mut().zip(sums) {
                *out += *sum;
            }
        }
    }
}

/// One span's share of a routing walk. The rank thread reserves its
/// buffers before the walk, so a helper thread pushes without growing them
/// while the plan's profile describes the slice.
struct SpanRoute {
    /// The span's async nonzeros in walk order, each with its bucket.
    asyncs: Vec<(usize, SmallTriplet)>,
    stash: Stash,
    sync_nnz: usize,
    /// Non-empty panels, and the first and last of them.
    panels: usize,
    first_panel: usize,
    last_panel: usize,
    /// The span's first nonzero in an unclassified stripe; its walk stops
    /// there.
    unclassified: Option<RankError>,
}

impl SpanRoute {
    fn new(asyncs: usize, stash_rows: usize, k: usize) -> SpanRoute {
        SpanRoute {
            asyncs: Vec::with_capacity(asyncs),
            stash: Stash::with_capacity(stash_rows, k),
            sync_nnz: 0,
            panels: 0,
            first_panel: 0,
            last_panel: 0,
            unclassified: None,
        }
    }

    /// Algorithm 2's loop over `span`, routing as it goes: each sync/local
    /// nonzero adds into `acc`, each async one joins its bucket. A finished
    /// row's sum is flushed into `c_chunk`, whose first row is global row
    /// `row_base`, or stashed if the row also holds async nonzeros. Without
    /// `COMPUTE` the walk only routes and counts, and touches neither
    /// `c_chunk` nor `acc`.
    #[inline(always)]
    fn walk<const F: usize, const COMPUTE: bool>(
        &mut self,
        span: &[Triplet],
        slice: &RankSlice<'_>,
        rows: &BlockRows<'_>,
        c_chunk: &mut [Scalar],
        row_base: usize,
        mut acc: impl AsMut<[Scalar]>,
    ) {
        let Some(first) = span.first() else {
            return;
        };
        let acc = acc.as_mut();
        let (k, origin, height) = (rows.k, slice.origin, slice.panel_height);
        let mut cursor = RowCursor::default();
        // The counters stay in locals until the span ends: sync/local
        // nonzeros, non-empty panels, the first and last of those, and the
        // global row past the last.
        let (mut sync_nnz, mut panels, mut first_panel, mut last_panel) = (0, 0, 0, 0);
        let mut panel_end = 0usize;
        let mut row = first.row;
        // Whether `row` holds a sync/local nonzero, and an async one.
        let (mut held, mut mixed) = (false, false);
        for t in span {
            if t.row != row {
                if COMPUTE && held {
                    self.end_row::<F>(row - origin, row - row_base, mixed, c_chunk, acc, k);
                }
                (row, held, mixed) = (t.row, false, false);
            }
            let mut offset = t.col.wrapping_sub(cursor.start);
            if offset >= cursor.len {
                match rows.route(t.col, slice.routes) {
                    Miss::Held(found) => {
                        cursor = found;
                        offset = t.col - cursor.start;
                    }
                    Miss::Async(bucket) => {
                        let entry = SmallTriplet::new(t.row - origin, t.col, t.val);
                        self.asyncs.push((bucket, entry));
                        mixed = true;
                        continue;
                    }
                    Miss::Unclassified(stripe) => {
                        self.unclassified =
                            Some(RankError::Unclassified { stripe, row: t.row, col: t.col });
                        return;
                    }
                }
            }
            held = true;
            sync_nnz += 1;
            // Rows ascend, so a row past the last counted panel opens a new
            // non-empty panel.
            if t.row >= panel_end {
                last_panel = (t.row - origin) / height;
                if panels == 0 {
                    first_panel = last_panel;
                }
                panels += 1;
                panel_end = origin + (last_panel + 1) * height;
            }
            if COMPUTE {
                axpy::<F>(acc, &cursor.rows[offset * k..(offset + 1) * k], t.val);
            }
        }
        if COMPUTE && held {
            self.end_row::<F>(row - origin, row - row_base, mixed, c_chunk, acc, k);
        }
        (self.sync_nnz, self.panels) = (sync_nnz, panels);
        (self.first_panel, self.last_panel) = (first_panel, last_panel);
    }

    /// Ends a row that held sync/local nonzeros: its sum in `acc` goes to
    /// the stash if the row also holds async nonzeros (local row `local`),
    /// and is flushed into row `chunk_row` of `c_chunk` otherwise, where the
    /// async lane never adds.
    #[inline(always)]
    fn end_row<const F: usize>(
        &mut self,
        local: usize,
        chunk_row: usize,
        mixed: bool,
        c_chunk: &mut [Scalar],
        acc: &mut [Scalar],
        k: usize,
    ) {
        if mixed {
            self.stash.push(local, acc);
        } else {
            flush::<F>(c_chunk, chunk_row, acc, k);
        }
    }
}

/// The routing walk: Algorithm 2's row-panel loop over a rank's whole row
/// slice of `A` (`slice`), which also routes every nonzero, so a one-shot
/// run walks the slice once.
///
/// * A sync/local nonzero — its `B` row held by `rows` — adds into its
///   row's sum, in entry order, exactly as in [`sync_panel_kernel`]. A
///   row's sum is flushed into `c_local` when the row holds no async
///   nonzero: the async lane never touches that row, so it flushes into
///   the same `C` value it would have met after that lane. Otherwise the
///   sum waits in the returned [`Stash`], whose [`Stash::add_into`] the
///   caller applies after the async lane.
/// * An async nonzero joins its stripe's bucket in `buckets` (one per async
///   stripe of `slice.routes`, as reserved by the caller), row-major with
///   local rows.
/// * The sync/local nonzeros and their non-empty row panels are counted.
///
/// With `c_local` absent the walk only routes and counts. It fans out over
/// row-aligned spans of `pool`, each with its own buffers and counters,
/// reserved here (`async_bound`, the rank's async nonzeros, bounds a span's
/// async nonzeros and stashed rows) and merged in span order, so the result
/// is identical for any worker count.
///
/// # Errors
///
/// [`RankError::Unclassified`] for the first nonzero, row-major, in a
/// stripe that neither `rows` holds nor `slice.routes` classifies.
///
/// # Panics
///
/// Panics if a stripe routed to the sync lane has no block in `rows`.
pub(crate) fn par_route_rows(
    pool: &Pool,
    slice: &RankSlice<'_>,
    rows: &BlockRows<'_>,
    buckets: Vec<Vec<SmallTriplet>>,
    async_bound: usize,
    c_local: Option<&mut [Scalar]>,
) -> Result<Routed, RankError> {
    route_rows_for(Isa::host(), pool, slice, rows, buckets, async_bound, c_local)
}

/// [`par_route_rows`] with its sums compiled for `isa`.
fn route_rows_for(
    isa: Isa,
    pool: &Pool,
    slice: &RankSlice<'_>,
    rows: &BlockRows<'_>,
    buckets: Vec<Vec<SmallTriplet>>,
    async_bound: usize,
    c_local: Option<&mut [Scalar]>,
) -> Result<Routed, RankError> {
    let (entries, k, compute) = (slice.entries, rows.k, c_local.is_some());
    let (pool, spans) = if pool.workers() > 1 && entries.len() * k >= PAR_MIN_PRODUCTS {
        (*pool, row_aligned_spans(entries, slice.origin, slice.local_rows, 4 * pool.workers()))
    } else {
        (Pool::SERIAL, vec![(0..entries.len(), 0..slice.local_rows)])
    };
    let mut parts: Vec<SpanRoute> = spans
        .iter()
        .map(|(entry_range, row_range)| {
            let stash_rows = if compute { async_bound.min(row_range.len()) } else { 0 };
            SpanRoute::new(async_bound.min(entry_range.len()), stash_rows, k)
        })
        .collect();
    let mut tasks = Vec::with_capacity(parts.len());
    let mut rest = c_local.unwrap_or_default();
    for ((entry_range, row_range), part) in spans.into_iter().zip(&mut parts) {
        let (chunk, tail) = rest.split_at_mut(if compute { row_range.len() * k } else { 0 });
        rest = tail;
        tasks.push((part, &entries[entry_range], chunk, slice.origin + row_range.start));
    }
    pool.run_items(tasks.into_iter(), |(part, span, chunk, row_base)| {
        if compute {
            dispatch_k!(
                isa,
                k,
                FIXED,
                part.walk::<FIXED, true>(span, slice, rows, chunk, row_base, [0.0; FIXED]),
                part.walk::<FIXED, true>(span, slice, rows, chunk, row_base, vec![0.0; k])
            );
        } else {
            part.walk::<0, false>(span, slice, rows, chunk, row_base, []);
        }
    });
    let mut routed = Routed { buckets, sync_nnz: 0, nonempty_panels: 0, stash: Stash::default() };
    let mut last_panel = None;
    for part in parts {
        if let Some(error) = part.unclassified {
            return Err(error);
        }
        for (bucket, entry) in part.asyncs {
            routed.buckets[bucket].push(entry);
        }
        routed.sync_nnz += part.sync_nnz;
        if part.panels > 0 {
            // A panel cut by a span boundary counts once.
            let cut = last_panel == Some(part.first_panel);
            routed.nonempty_panels += part.panels - usize::from(cut);
            last_panel = Some(part.last_panel);
        }
        routed.stash.append(part.stash);
    }
    Ok(routed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use twoface_partition::StripeClass;

    fn arc_rows(rows: &[[Scalar; 2]]) -> Arc<Vec<Scalar>> {
        Arc::new(rows.iter().flatten().copied().collect())
    }

    /// One node, one stripe: `0..cols` is the only block a source can add.
    fn whole(cols: usize) -> OneDimLayout {
        OneDimLayout::new(1, cols, 1, cols.max(1))
    }

    /// Three column blocks of two columns each, one stripe per block.
    fn three_pairs() -> OneDimLayout {
        OneDimLayout::new(6, 6, 3, 2)
    }

    #[test]
    fn block_rows_resolves_across_blocks() {
        let layout = three_pairs();
        let mut b = BlockRows::new(&layout, 2);
        b.add_block(4..6, arc_rows(&[[4.0, 40.0], [5.0, 50.0]]));
        b.add_block(0..2, arc_rows(&[[0.0, 0.0], [1.0, 10.0]]));
        assert_eq!(b.row(1), &[1.0, 10.0]);
        assert_eq!(b.row(5), &[5.0, 50.0]);
        assert!(b.contains(4));
        assert!(!b.contains(2));
        assert!(!b.contains(6), "past the last column");
    }

    #[test]
    #[should_panic(expected = "no block holds B row 0")]
    fn missing_row_panics() {
        let layout = three_pairs();
        let b = BlockRows::new(&layout, 2);
        let _ = b.row(0);
    }

    #[test]
    #[should_panic(expected = "no block holds B row 3")]
    fn never_added_stripe_panics() {
        // The stripes on both sides hold blocks; the one between does not.
        let layout = three_pairs();
        let mut b = BlockRows::new(&layout, 2);
        b.add_block(0..2, arc_rows(&[[0.0, 0.0], [1.0, 10.0]]));
        b.add_block(4..6, arc_rows(&[[4.0, 40.0], [5.0, 50.0]]));
        let mut cur = RowCursor::default();
        assert_eq!(b.row_with(&mut cur, 1), &[1.0, 10.0]);
        let _ = b.row_with(&mut cur, 3);
    }

    #[test]
    #[should_panic(expected = "does not sit on stripe boundaries")]
    fn block_starting_inside_a_stripe_panics() {
        // Column blocks 0..5 and 5..10; stripes 0..3, 3..5, 5..8, 8..10.
        let layout = OneDimLayout::new(10, 10, 2, 3);
        let mut b = BlockRows::new(&layout, 1);
        b.add_block(1..5, vec![0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "does not sit on stripe boundaries")]
    fn block_ending_inside_a_stripe_panics() {
        let layout = OneDimLayout::new(10, 10, 2, 3);
        let mut b = BlockRows::new(&layout, 1);
        b.add_block(5..7, vec![0.0; 2]);
    }

    #[test]
    #[should_panic(expected = "stripe 1 already has a block")]
    fn overlapping_blocks_panic() {
        // A column block, then one of its own stripes again.
        let layout = OneDimLayout::new(10, 10, 2, 3);
        let mut b = BlockRows::new(&layout, 1);
        b.add_block(0..5, vec![0.0; 5]);
        b.add_block(3..5, vec![0.0; 2]);
    }

    #[test]
    fn fetched_rows_maps_runs_with_padding() {
        // Runs (1,2) and (5,1) from a block starting at global col 100, K=2:
        // slots: col 101 -> 0, col 102 -> 1, col 105 -> 2.
        let data = vec![1.0, 1.5, 2.0, 2.5, 5.0, 5.5];
        let f = FetchedRows::new(&[(1, 2), (5, 1)], 100, data, 2);
        assert_eq!(f.num_rows(), 3);
        assert_eq!(f.row(101), &[1.0, 1.5]);
        assert_eq!(f.row(102), &[2.0, 2.5]);
        assert_eq!(f.row(105), &[5.0, 5.5]);
    }

    #[test]
    #[should_panic(expected = "was not fetched")]
    fn unfetched_row_panics() {
        let f = FetchedRows::new(&[(0, 1)], 0, vec![0.0, 0.0], 2);
        let _ = f.row(3);
    }

    #[test]
    #[should_panic(expected = "was not fetched")]
    fn gap_between_runs_panics() {
        let f = FetchedRows::new(&[(0, 1), (4, 1)], 10, vec![0.0; 4], 2);
        let _ = f.row(12); // between run ends 11 and start 14
    }

    #[test]
    #[should_panic(expected = "was not fetched")]
    fn column_below_first_run_panics() {
        let f = FetchedRows::new(&[(5, 1)], 10, vec![0.0, 0.0], 2);
        let _ = f.row(3);
    }

    #[test]
    fn fetched_rows_random_access_after_cached_run() {
        // Jump between runs in both directions through one shared cursor:
        // the cached run must not return stale slots.
        let data: Vec<f64> = (0..6).flat_map(|i| [i as f64, -(i as f64)]).collect();
        let f = FetchedRows::new(&[(0, 2), (10, 2), (20, 2)], 0, data, 2);
        let mut cur = RowCursor::default();
        assert_eq!(f.row_with(&mut cur, 21), &[5.0, -5.0]);
        assert_eq!(f.row_with(&mut cur, 0), &[0.0, 0.0]);
        assert_eq!(f.row_with(&mut cur, 11), &[3.0, -3.0]);
        assert_eq!(f.row_with(&mut cur, 10), &[2.0, -2.0]);
        assert_eq!(f.row_with(&mut cur, 1), &[1.0, -1.0]);
        assert_eq!(f.row_with(&mut cur, 20), &[4.0, -4.0]);
    }

    #[test]
    fn block_rows_random_access_after_cached_block() {
        // Five column blocks of two columns: 0..2, ..., 8..10.
        let layout = OneDimLayout::new(10, 10, 5, 2);
        let mut b = BlockRows::new(&layout, 1);
        b.add_block(0..2, Arc::new(vec![0.0, 1.0]));
        b.add_block(8..10, Arc::new(vec![8.0, 9.0]));
        let mut cur = RowCursor::default();
        assert_eq!(b.row_with(&mut cur, 9), &[9.0]);
        assert_eq!(b.row_with(&mut cur, 0), &[0.0]);
        assert_eq!(b.row_with(&mut cur, 8), &[8.0]);
        assert!(!b.contains(5));
        assert_eq!(b.row_with(&mut cur, 1), &[1.0]);
    }

    #[test]
    fn row_sources_are_sync() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<BlockRows<'static>>();
        assert_sync::<FetchedRows>();
    }

    #[test]
    fn sync_kernel_accumulates_per_row() {
        // Panel: row 0 has cols 0 and 1; row 2 has col 1. K=2.
        let panel =
            vec![Triplet::new(0, 0, 2.0), Triplet::new(0, 1, 3.0), Triplet::new(2, 1, 10.0)];
        let layout = whole(2);
        let mut b = BlockRows::new(&layout, 2);
        b.add_block(0..2, arc_rows(&[[1.0, 10.0], [2.0, 20.0]]));
        let mut c = vec![0.0; 3 * 2];
        sync_panel_kernel(&panel, &b, &mut c, 2);
        assert_eq!(&c[0..2], &[2.0 + 6.0, 20.0 + 60.0]);
        assert_eq!(&c[2..4], &[0.0, 0.0]);
        assert_eq!(&c[4..6], &[20.0, 200.0]);
    }

    #[test]
    fn sync_kernel_adds_onto_existing_output() {
        let panel = vec![Triplet::new(0, 0, 1.0)];
        let layout = whole(1);
        let mut b = BlockRows::new(&layout, 1);
        b.add_block(0..1, Arc::new(vec![5.0]));
        let mut c = vec![100.0];
        sync_panel_kernel(&panel, &b, &mut c, 1);
        assert_eq!(c, vec![105.0]);
    }

    #[test]
    fn offset_kernels_rebase_rows_into_the_chunk() {
        // Entries for local rows 4 and 5 land at chunk rows 0 and 1.
        let entries = vec![Triplet::new(4, 0, 2.0), Triplet::new(5, 0, 3.0)];
        let layout = whole(1);
        let mut b = BlockRows::new(&layout, 1);
        b.add_block(0..1, Arc::new(vec![10.0]));
        let mut chunk = vec![0.0; 2];
        sync_panel_kernel_at(&entries, &b, &mut chunk, 1, 4);
        assert_eq!(chunk, vec![20.0, 30.0]);
        let mut chunk = vec![0.0; 2];
        async_stripe_kernel_at(&entries, &b, &mut chunk, 1, 4);
        assert_eq!(chunk, vec![20.0, 30.0]);
    }

    #[test]
    fn empty_panel_is_noop() {
        let layout = whole(0);
        let b = BlockRows::new(&layout, 2);
        let mut c = vec![1.0; 4];
        sync_panel_kernel(&[] as &[Triplet], &b, &mut c, 2);
        assert_eq!(c, vec![1.0; 4]);
    }

    #[test]
    fn kernels_agree_on_the_same_entries() {
        // The same nonzeros in row-major vs column-major order produce the
        // same C (different summation order, identical here by exactness of
        // small integer-valued doubles).
        let row_major =
            vec![Triplet::new(0, 0, 1.0), Triplet::new(0, 1, 2.0), Triplet::new(1, 0, 3.0)];
        let mut col_major = row_major.clone();
        col_major.sort_by_key(|t| (t.col, t.row));
        let layout = whole(2);
        let mut b = BlockRows::new(&layout, 2);
        b.add_block(0..2, arc_rows(&[[1.0, 2.0], [3.0, 4.0]]));
        let mut c_sync = vec![0.0; 4];
        let mut c_async = vec![0.0; 4];
        sync_panel_kernel(&row_major, &b, &mut c_sync, 2);
        async_stripe_kernel(&col_major, &b, &mut c_async, 2);
        assert_eq!(c_sync, c_async);
    }

    /// A xorshift stream from `seed`.
    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    /// Pseudorandom row-major triplets over `rows x cols`.
    fn random_entries(rows: usize, cols: usize, nnz: usize, seed: u64) -> Vec<Triplet> {
        let mut next = xorshift(seed);
        let mut entries: Vec<Triplet> = (0..nnz)
            .map(|_| {
                let r = (next() as usize) % rows;
                let c = (next() as usize) % cols;
                Triplet::new(r, c, ((next() % 1000) as f64 - 500.0) / 250.0)
            })
            .collect();
        entries.sort_by_key(|t| (t.row, t.col));
        entries.dedup_by_key(|t| (t.row, t.col));
        entries
    }

    /// The routes of `classes` over `layout`'s stripes.
    fn routes_of(layout: &OneDimLayout, classes: &[(usize, StripeClass)]) -> Routes {
        Routes::from_classes(layout.num_stripes(), classes)
    }

    /// `B` rows for `cols`, `k` wide: close to 1, and distinct per element.
    fn b_rows(cols: Range<usize>, k: usize) -> Vec<Scalar> {
        cols.flat_map(|c| (0..k).map(move |j| 1.0 + (c * 7 + j) as f64 / 1024.0)).collect()
    }

    /// A [`BlockRows`] holding every stripe in `stripes`, one block each,
    /// with [`b_rows`]' values.
    fn holding<'l>(layout: &'l OneDimLayout, stripes: &[usize], k: usize) -> BlockRows<'l> {
        let mut rows = BlockRows::new(layout, k);
        for &stripe in stripes {
            let cols = layout.stripe_cols(stripe);
            rows.add_block(cols.clone(), b_rows(cols, k));
        }
        rows
    }

    /// The stripes of `layout` whose route is asynchronous, with their
    /// entries from `entries` (rows rebased by `origin`), row-major.
    fn async_buckets(
        layout: &OneDimLayout,
        routes: &Routes,
        entries: &[Triplet],
        origin: usize,
    ) -> Vec<Vec<SmallTriplet>> {
        let bucket_of = |t: &Triplet| match routes.of(layout.stripe_of_col(t.col)) {
            Route::Async(bucket) => Some(bucket),
            _ => None,
        };
        let mut buckets = vec![Vec::new(); routes.async_stripes().len()];
        for t in entries {
            if let Some(bucket) = bucket_of(t) {
                buckets[bucket].push(SmallTriplet::new(t.row - origin, t.col, t.val));
            }
        }
        buckets
    }

    /// A routing walk over `entries` into `c` (when given), from empty
    /// buckets with no reservation hint.
    fn walk(
        pool: &Pool,
        slice: &RankSlice<'_>,
        rows: &BlockRows<'_>,
        c: Option<&mut [Scalar]>,
    ) -> Result<Routed, RankError> {
        let buckets = vec![Vec::new(); slice.routes.async_stripes().len()];
        par_route_rows(pool, slice, rows, buckets, 0, c)
    }

    /// The async lane's adds, then the stashed sums: what the rank body
    /// applies after a routing walk.
    fn finish(routed: &Routed, all: &BlockRows<'_>, c: &mut [Scalar], k: usize) {
        for bucket in &routed.buckets {
            async_stripe_kernel(bucket, all, c, k);
        }
        routed.stash.add_into(c, k);
    }

    fn bits(c: &[Scalar]) -> Vec<u64> {
        c.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn routing_walk_equals_the_plain_kernel_after_the_async_adds() {
        // Stripes 0 and 2 are held, stripe 1 asynchronous; rows start at 10.
        // Row 10 holds an async entry between held ones, row 11 only async
        // entries, row 12 only held ones, row 13 two async entries and then
        // a large held one, row 14 nothing and row 15 an async entry last.
        let layout = three_pairs();
        let routes = routes_of(
            &layout,
            &[(0, StripeClass::LocalInput), (1, StripeClass::Async), (2, StripeClass::Sync)],
        );
        let entries = vec![
            Triplet::new(10, 0, 1.5),
            Triplet::new(10, 2, 9.0),
            Triplet::new(10, 4, 2.0),
            Triplet::new(11, 3, 7.0),
            Triplet::new(12, 1, 0.25),
            Triplet::new(12, 5, -1.0),
            Triplet::new(13, 2, 1.0),
            Triplet::new(13, 3, 1.0),
            Triplet::new(13, 4, 1e16),
            Triplet::new(15, 1, 1.0),
            Triplet::new(15, 3, 4.0),
        ];
        let slice = RankSlice {
            entries: &entries,
            origin: 10,
            local_rows: 6,
            routes: &routes,
            panel_height: 2,
        };
        let held: Vec<Triplet> = entries
            .iter()
            .filter(|t| layout.stripe_of_col(t.col) != 1)
            .map(|t| Triplet::new(t.row - 10, t.col, t.val))
            .collect();
        let asyncs = async_buckets(&layout, &routes, &entries, 10);
        for k in [1usize, 3, 8] {
            let (rows, all) = (holding(&layout, &[0, 2], k), holding(&layout, &[0, 1, 2], k));
            // A prepared run: the async adds first, then the plain kernel.
            // -0.0 turns into +0.0 under any add, so an untouched row shows.
            let mut want = vec![-0.0; 6 * k];
            for bucket in &asyncs {
                async_stripe_kernel(bucket, &all, &mut want, k);
            }
            sync_panel_kernel(&held, &rows, &mut want, k);
            let mut got = vec![-0.0; 6 * k];
            let routed = walk(&Pool::SERIAL, &slice, &rows, Some(&mut got)).expect("classified");
            // Rows 12 (sync only) and 11 (async only) are final, and row 14
            // untouched, before the async lane runs.
            assert_eq!(bits(&got[2 * k..3 * k]), bits(&want[2 * k..3 * k]), "K={k}");
            assert!(got[k..2 * k]
                .iter()
                .chain(&got[4 * k..5 * k])
                .all(|x| x.to_bits() == (-0.0f64).to_bits()));
            finish(&routed, &all, &mut got, k);
            assert_eq!(bits(&got), bits(&want), "K={k}");
            assert_eq!(routed.buckets, asyncs, "K={k}");
            assert_eq!((routed.sync_nnz, routed.nonempty_panels), (6, 3), "K={k}");
            // The data tells the orders apart: row 13 flushed before its
            // async adds would differ.
            let early = -0.0 + (1e16 * all.row(4)[0]) + all.row(2)[0] + all.row(3)[0];
            assert_ne!(early.to_bits(), want[3 * k].to_bits(), "K={k}");
        }
    }

    #[test]
    fn parallel_routing_walk_matches_serial_bitwise() {
        // Five stripes of 13 columns (the last 12); 1 and 3 are asynchronous.
        // Rows start at 1000, and panels of 7 rows are cut by row-aligned
        // spans.
        let layout = OneDimLayout::new(3000, 64, 5, 13);
        let classes = [
            (0, StripeClass::LocalInput),
            (1, StripeClass::Async),
            (2, StripeClass::Sync),
            (3, StripeClass::Async),
            (4, StripeClass::Sync),
        ];
        let routes = routes_of(&layout, &classes);
        let (origin, local_rows, height) = (1000, 3000, 7);
        let entries: Vec<Triplet> = random_entries(local_rows, 64, 45_000, 17)
            .into_iter()
            .map(|t| Triplet::new(t.row + origin, t.col, t.val))
            .collect();
        assert!(entries.len() >= PAR_MIN_PRODUCTS, "K = 1 fans out too");
        let slice = RankSlice {
            entries: &entries,
            origin,
            local_rows,
            routes: &routes,
            panel_height: height,
        };
        let held = |t: &&Triplet| [0, 2, 4].contains(&layout.stripe_of_col(t.col));
        let mut panels: Vec<usize> =
            entries.iter().filter(held).map(|t| (t.row - origin) / height).collect();
        panels.dedup();
        for workers in [2usize, 4] {
            let spans = row_aligned_spans(&entries, origin, local_rows, 4 * workers);
            assert!(spans.iter().any(|(_, rows)| rows.start % height != 0), "a span cuts a panel");
        }
        for k in [1usize, 3, 8, 32, 128] {
            let (rows, all) =
                (holding(&layout, &[0, 2, 4], k), holding(&layout, &[0, 1, 2, 3, 4], k));
            let mut serial = vec![0.0; local_rows * k];
            let want = walk(&Pool::SERIAL, &slice, &rows, Some(&mut serial)).expect("classified");
            assert_eq!(want.nonempty_panels, panels.len(), "K={k}");
            assert_eq!(want.sync_nnz, entries.iter().filter(held).count(), "K={k}");
            assert_eq!(want.buckets, async_buckets(&layout, &routes, &entries, origin), "K={k}");
            finish(&want, &all, &mut serial, k);
            for workers in [1usize, 2, 4] {
                let mut par = vec![0.0; local_rows * k];
                let got =
                    walk(&Pool::new(workers), &slice, &rows, Some(&mut par)).expect("classified");
                let at = format!("K={k} workers={workers}");
                assert_eq!(got.buckets, want.buckets, "{at}");
                assert_eq!(
                    (got.sync_nnz, got.nonempty_panels),
                    (want.sync_nnz, want.nonempty_panels),
                    "{at}"
                );
                assert_eq!(
                    (&got.stash.rows, bits(&got.stash.sums)),
                    (&want.stash.rows, bits(&want.stash.sums)),
                    "{at}"
                );
                finish(&got, &all, &mut par, k);
                assert_eq!(bits(&par), bits(&serial), "{at}");
            }
        }
    }

    #[test]
    fn routing_walk_reports_the_first_unclassified_nonzero() {
        // Owner 0's column block holds stripes 0-2 and owner 1's stripes
        // 3-5, four columns each. The plan classified stripes 0 and 2 of the
        // rank's own block, but not stripe 1 between them, so the own block
        // is held as two runs; stripe 4 is asynchronous and stripe 5 was
        // never classified either.
        let layout = OneDimLayout::new(2000, 24, 2, 4);
        let classes = [
            (0, StripeClass::LocalInput),
            (2, StripeClass::LocalInput),
            (3, StripeClass::Sync),
            (4, StripeClass::Async),
        ];
        let routes = routes_of(&layout, &classes);
        let k = 8;
        let rows = holding(&layout, &[0, 2, 3], k);
        let classified = |t: &Triplet| ![4..8, 20..24].iter().any(|cols| cols.contains(&t.col));
        let mut entries: Vec<Triplet> =
            random_entries(2000, 24, 12_000, 5).into_iter().filter(classified).collect();
        // Two nonzeros in stripe 5, past the first span; then one in the
        // own block's stripe 1, alone in a later row.
        let last = entries.len() - 1;
        let (first_row, next_row) = (entries[last / 2].row, entries[3 * last / 4].row);
        entries.push(Triplet::new(first_row, 21, 1.0));
        entries.push(Triplet::new(next_row, 20, 1.0));
        entries.sort_by_key(|t| (t.row, t.col));
        let slice = RankSlice {
            entries: &entries,
            origin: 0,
            local_rows: 2000,
            routes: &routes,
            panel_height: 32,
        };
        let spans = row_aligned_spans(&entries, 0, 2000, 8);
        assert!(spans[0].1.end <= first_row, "the first unclassified nonzero lies past span 0");
        for workers in [1usize, 2, 4] {
            let mut c = vec![0.0; 2000 * k];
            match walk(&Pool::new(workers), &slice, &rows, Some(&mut c)) {
                Err(RankError::Unclassified { stripe, row, col }) => {
                    assert_eq!((stripe, row, col), (5, first_row, 21), "workers={workers}")
                }
                other => panic!("workers={workers}: expected Unclassified, got {:?}", other.err()),
            }
        }
        // In the rank's own column block: the runs leave stripe 1 unheld.
        let own = vec![Triplet::new(3, 0, 1.0), Triplet::new(3, 5, 1.0), Triplet::new(4, 9, 1.0)];
        let slice = RankSlice {
            entries: &own,
            origin: 0,
            local_rows: 2000,
            routes: &routes,
            panel_height: 32,
        };
        match walk(&Pool::SERIAL, &slice, &rows, None) {
            Err(RankError::Unclassified { stripe, row, col }) => {
                assert_eq!((stripe, row, col), (1, 3, 5))
            }
            other => panic!("expected Unclassified, got {:?}", other.err()),
        }
    }

    #[test]
    fn structural_routing_walk_routes_and_counts_only() {
        let layout = OneDimLayout::new(500, 64, 5, 13);
        let routes = routes_of(
            &layout,
            &[
                (0, StripeClass::LocalInput),
                (1, StripeClass::Async),
                (2, StripeClass::Sync),
                (4, StripeClass::Async),
            ],
        );
        let entries: Vec<Triplet> = random_entries(500, 64, 6000, 9)
            .into_iter()
            .filter(|t| layout.stripe_of_col(t.col) != 3)
            .collect();
        let slice = RankSlice {
            entries: &entries,
            origin: 0,
            local_rows: 500,
            routes: &routes,
            panel_height: 16,
        };
        let k = 32;
        let rows = holding(&layout, &[0, 2], k);
        for workers in [1usize, 4] {
            let pool = Pool::new(workers);
            let mut c = vec![0.0; 500 * k];
            let computed = walk(&pool, &slice, &rows, Some(&mut c)).expect("classified");
            assert!(c.iter().any(|&x| x != 0.0) && !computed.stash.rows.is_empty());
            let counted = walk(&pool, &slice, &rows, None).expect("classified");
            assert_eq!(counted.buckets, computed.buckets, "workers={workers}");
            assert_eq!(
                (counted.sync_nnz, counted.nonempty_panels),
                (computed.sync_nnz, computed.nonempty_panels),
                "workers={workers}"
            );
            assert!(
                counted.stash.rows.is_empty() && counted.stash.sums.is_empty(),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn parallel_kernels_match_serial_bitwise_across_k_and_workers() {
        for k in [2usize, 8, 32, 128] {
            let rows = 97; // deliberately not a multiple of any chunking
            let cols = 64;
            let entries = random_entries(rows, cols, 900, k as u64 + 7);
            let mut col_major = entries.clone();
            col_major.sort_by_key(|t| (t.col, t.row));
            let layout = whole(cols);
            let mut b = BlockRows::new(&layout, k);
            b.add_block(
                0..cols,
                Arc::new((0..cols * k).map(|i| (i % 13) as f64 * 0.5).collect::<Vec<_>>()),
            );

            let mut c_serial_sync = vec![0.0; rows * k];
            sync_panel_kernel(&entries, &b, &mut c_serial_sync, k);
            let mut c_serial_async = vec![0.0; rows * k];
            async_stripe_kernel(&col_major, &b, &mut c_serial_async, k);

            for workers in [2usize, 3, 8] {
                let pool = Pool::new(workers);
                let mut c_par = vec![0.0; rows * k];
                par_sync_panels(&pool, &entries, &b, &mut c_par, k);
                assert_eq!(c_par, c_serial_sync, "sync K={k} workers={workers}");
                let mut c_par = vec![0.0; rows * k];
                par_async_stripe(&pool, &entries, &b, &mut c_par, k);
                assert_eq!(c_par, c_serial_async, "async K={k} workers={workers}");
            }
        }
    }

    /// Full-mantissa values in `[-1, 1)`, from `seed`.
    fn noise(seed: u64) -> impl FnMut() -> f64 {
        let mut next = xorshift(seed);
        move || (next() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    #[test]
    fn every_isa_matches_the_baseline_bitwise() {
        let isas: Vec<Isa> = Isa::ALL.into_iter().filter(|isa| isa.supported()).collect();
        println!("each kernel compared bitwise with its baseline copy: {isas:?}");
        // Five stripes of 13 columns (the last 12); 1 and 3 are asynchronous.
        let layout = OneDimLayout::new(1500, 64, 5, 13);
        let classes = [
            (0, StripeClass::LocalInput),
            (1, StripeClass::Async),
            (2, StripeClass::Sync),
            (3, StripeClass::Async),
            (4, StripeClass::Sync),
        ];
        let routes = routes_of(&layout, &classes);
        // Products near 1e16 next to small terms, with full mantissas: a fused
        // multiply-add keeps the product's low bits, which these sums show.
        let mut value = noise(3);
        let mut entries: Vec<Triplet> = random_entries(1500, 64, 20_000, 11)
            .into_iter()
            .enumerate()
            .map(|(i, t)| {
                let v = value();
                Triplet::new(t.row, t.col, if i % 3 == 0 { 1e16 * v } else { v })
            })
            .collect();
        // A row holding only async nonzeros, and one holding a sync nonzero
        // between two async ones, which the routing walk stashes.
        entries.retain(|t| t.row != 7 && t.row != 8);
        entries.extend([
            Triplet::new(7, 14, 1.5),
            Triplet::new(7, 40, -2.5),
            Triplet::new(8, 15, 3.0),
            Triplet::new(8, 27, 1e16 + 2.0),
            Triplet::new(8, 41, 0.5),
        ]);
        entries.sort_by_key(|t| (t.row, t.col));
        let slice = RankSlice {
            entries: &entries,
            origin: 0,
            local_rows: 1500,
            routes: &routes,
            panel_height: 32,
        };
        let mut col_major = entries.clone();
        col_major.sort_by_key(|t| (t.col, t.row));
        for k in [1usize, 3, 4, 8, 16, 32, 64, 100, 128] {
            let mut b = noise(k as u64);
            let mut held = BlockRows::new(&layout, k);
            let mut all = BlockRows::new(&layout, k);
            for stripe in 0..5 {
                let cols = layout.stripe_cols(stripe);
                let rows: Vec<Scalar> = (0..cols.len() * k).map(|_| b()).collect();
                if ![1, 3].contains(&stripe) {
                    held.add_block(cols.clone(), rows.clone());
                }
                all.add_block(cols, rows);
            }
            // -0.0 turns into +0.0 under any add, so an untouched element shows.
            let zeros = || vec![-0.0; 1500 * k];
            let mut want_sync = zeros();
            sync_panel_for(Isa::Baseline, &entries, &all, &mut want_sync, k, 0);
            let mut want_async = zeros();
            async_stripe_for(Isa::Baseline, &col_major, &all, &mut want_async, k, 0);
            let mut want_walk = zeros();
            let buckets = vec![Vec::new(); 2];
            let want = route_rows_for(
                Isa::Baseline,
                &Pool::SERIAL,
                &slice,
                &held,
                buckets.clone(),
                0,
                Some(&mut want_walk),
            )
            .expect("classified");
            assert!(want.stash.rows.contains(&8), "K={k}: row 8 is stashed");
            let untouched =
                want_walk[7 * k..8 * k].iter().all(|x| x.to_bits() == (-0.0f64).to_bits());
            assert!(untouched, "K={k}: the walk leaves row 7, async only, to the async lane");
            for workers in [1usize, 2, 4] {
                let pool = Pool::new(workers);
                for &isa in &isas {
                    let at = format!("{isa:?} K={k} workers={workers}");
                    let mut got = zeros();
                    par_row_spans_plain(&pool, &entries, &mut got, k, |span, chunk, row_base| {
                        sync_panel_for(isa, span, &all, chunk, k, row_base)
                    });
                    assert_eq!(bits(&got), bits(&want_sync), "row-panel kernel, {at}");
                    let mut got = zeros();
                    par_row_spans_plain(&pool, &entries, &mut got, k, |span, chunk, row_base| {
                        async_stripe_for(isa, span, &all, chunk, k, row_base)
                    });
                    assert_eq!(bits(&got), bits(&want_async), "async kernel, {at}");
                    let mut got = zeros();
                    let routed = route_rows_for(
                        isa,
                        &pool,
                        &slice,
                        &held,
                        buckets.clone(),
                        0,
                        Some(&mut got),
                    )
                    .expect("classified");
                    assert_eq!(bits(&got), bits(&want_walk), "routing walk, {at}");
                    assert_eq!(
                        (&routed.stash.rows, bits(&routed.stash.sums)),
                        (&want.stash.rows, bits(&want.stash.sums)),
                        "routing walk's stash, {at}"
                    );
                    assert_eq!(routed.buckets, want.buckets, "routing walk's buckets, {at}");
                }
            }
        }
    }

    #[test]
    fn row_aligned_spans_partition_rows_and_entries() {
        let entries = random_entries(40, 16, 300, 3);
        for chunks in [1usize, 3, 8, 1000] {
            let spans = row_aligned_spans(&entries, 0, 40, chunks);
            // Entry ranges tile the slice; row ranges tile 0..40.
            let mut entry_cursor = 0;
            let mut row_cursor = 0;
            for (er, rr) in &spans {
                assert_eq!(er.start, entry_cursor);
                assert_eq!(rr.start, row_cursor);
                entry_cursor = er.end;
                row_cursor = rr.end;
                // Every entry's row falls inside the span's row range.
                for t in &entries[er.clone()] {
                    assert!(rr.contains(&t.row), "chunks={chunks}");
                }
            }
            assert_eq!(entry_cursor, entries.len());
            assert_eq!(row_cursor, 40);
        }
    }
}
