//! Out-of-core (streamed) Two-Face execution for paper-scale matrices.
//!
//! The paper's evaluation matrices hold 143M–3.6B nonzeros; the resident
//! pipeline materializes the full COO operand (24 B per nonzero) *and* every
//! rank's Figure-6 structures at once, which caps the synthetic suite far
//! below paper scale on one host. This module executes the same simulation
//! without ever holding the full matrix:
//!
//! 1. **Spill** — drain a chunked [`TripletSource`] and route each raw draw
//!    to a per-rank shard file (row blocks partition the stream), holding
//!    only one chunk plus write buffers.
//! 2. **Normalize + profile** — per rank, load the raw shard, apply
//!    [`normalize_triplets`] (the one normalization path in the workspace,
//!    so per-shard normalization concatenates to exactly the resident
//!    matrix), profile its stripes, and spill the normalized shard back.
//! 3. **Plan** — classify from the per-rank profiles through the planner
//!    the resident [`prepare_plan`](crate::prepare_plan) runs: the
//!    sync-buffer budget from each rank's operand bytes, then
//!    [`PartitionPlan::build_from_profiles`](twoface_partition::PartitionPlan::build_from_profiles).
//! 4. **Build + store** — per rank, build the compact [`RankMatrices`]
//!    from the normalized shard ([`RankMatrices::build_from_rows`]) and
//!    serialize them to a per-rank store file: async stripes first
//!    (ascending), sync entries last — the order execution consumes them,
//!    so reads are purely sequential.
//! 5. **Execute** — run the resident Two-Face rank body over a store
//!    source: each rank reads its store front to back into one reused
//!    buffer, one async stripe or one row-aligned sync chunk at a time, so
//!    peak memory is the dense operands plus a few panels of sparse
//!    entries per rank.
//!
//! The correctness contract is *bit-identity*: at any scale where the
//! resident path also fits, the streamed run's output `C`, simulated
//! seconds, per-lane breakdowns, and communication volumes equal the
//! resident [`run_algorithm`](crate::run_algorithm)'s exactly. Both paths
//! execute the same rank body, so this holds by construction; the
//! differential suite in `tests/streamed_pipeline.rs` checks it.

use crate::algo::twoface::{planned_memory_extra, twoface_rank, StripeSource, StripeView};
use crate::config::TwoFaceConfig;
use crate::error::{RankError, RunError};
use crate::format::RankMatrices;
use crate::pool::resolve_workers;
use crate::runner::{
    generated_b_block, harvest, memory_gate, plan_from_profiles, resolve_observability,
    stack_blocks, ExecOpts, ExecutionReport, NNZ_BYTES,
};
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use twoface_matrix::gen::TripletSource;
use twoface_matrix::{normalize_triplets, SmallTriplet, Triplet, SCALAR_BYTES};
use twoface_net::{
    Cluster, CostModel, Lane, MetricsRegistry, Observability, OpEvent, OpKind, PhaseClass,
};
use twoface_partition::{
    ClassifierKind, ModelCoefficients, NodeProfile, OneDimLayout, StripeClass,
};

/// Raw spill chunk cap in entries when no budget narrows it further.
pub const DEFAULT_STREAM_CHUNK_NNZ: usize = twoface_matrix::gen::DEFAULT_CHUNK_NNZ;

/// Sync-lane compute chunk in entries (16 B each): the "few panels" of
/// row-major nonzeros materialized at a time per rank during the final
/// compute phase.
const SYNC_CHUNK_ENTRIES: usize = 1 << 18;

/// Bytes of one serialized compact entry (`u32` row, `u32` col, `f64` val).
const SMALL_ENTRY_BYTES: usize = 16;

/// Options controlling one [`run_twoface_streamed`] call. Mirrors the
/// subset of [`RunOptions`](crate::RunOptions) the streamed pipeline
/// supports; plan construction uses exactly the resident defaulting rules,
/// which is what makes the two paths produce identical plans.
#[derive(Debug, Clone)]
pub struct StreamOptions {
    /// Whether to perform the floating-point work (structural operations
    /// and cost accounting always run).
    pub compute_values: bool,
    /// Table-2 runtime knobs.
    pub config: TwoFaceConfig,
    /// Plan coefficients; `None` derives them from the effective cost model,
    /// as the resident runner does.
    pub coefficients: Option<ModelCoefficients>,
    /// Stripe classifier for plan construction.
    pub classifier: ClassifierKind,
    /// Real execution workers (`None` resolves `TWOFACE_THREADS`, then the
    /// host parallelism).
    pub workers: Option<usize>,
    /// Host memory budget in bytes for the whole streamed run (dense
    /// operands, per-rank transients, spill buffers). `None` disables the
    /// gate; `Some` fails up front with [`RunError::HostBudgetExceeded`]
    /// when even the out-of-core working set cannot fit, and narrows the
    /// spill chunk size to stay inside the budget.
    pub memory_budget: Option<usize>,
    /// Directory for the spill and store files; defaults to
    /// [`std::env::temp_dir`]. The run creates (and removes on completion)
    /// a uniquely named subdirectory.
    pub spill_dir: Option<PathBuf>,
    /// Raw generation chunk cap in entries.
    pub chunk_nnz: usize,
    /// Per-operation event recording, exactly as
    /// [`RunOptions::observability`](crate::RunOptions::observability) — and
    /// additionally the streamed pipeline's own telemetry: one
    /// [`OpKind::HostPass`] span per pass, [`OpKind::Spill`] events for every
    /// shard and store file written or read (with byte counts), and
    /// [`OpKind::Gauge`] samples of the host-memory high-water estimate and
    /// remaining budget headroom. Pipeline events ride on rank 0's stream
    /// (the driver lives on the simulating host) as instants at simulated
    /// time zero, so they never perturb the simulated clocks: the run stays
    /// bit-identical with telemetry on or off. The `TWOFACE_TRACE` /
    /// `TWOFACE_PROFILE` environment knobs promote and export this exactly
    /// as they do for the resident runner.
    pub observability: Observability,
}

impl Default for StreamOptions {
    fn default() -> Self {
        StreamOptions {
            compute_values: true,
            config: TwoFaceConfig::default(),
            coefficients: None,
            classifier: ClassifierKind::Greedy,
            workers: None,
            memory_budget: None,
            spill_dir: None,
            chunk_nnz: DEFAULT_STREAM_CHUNK_NNZ,
            observability: Observability::off(),
        }
    }
}

/// The result of one streamed run: the standard report plus the streaming
/// pipeline's own accounting.
#[derive(Debug)]
pub struct StreamedRun {
    /// The execution report; bit-identical (output, simulated seconds,
    /// breakdowns, volumes) to the resident path at overlap scales.
    pub report: ExecutionReport,
    /// Nonzeros after duplicate summing (the resident matrix's `nnz()`).
    pub realized_nnz: usize,
    /// Total bytes written to spill and store files.
    pub spilled_bytes: usize,
    /// Largest per-rank shard materialized during normalization, in bytes —
    /// the dominant transient of the preprocessing passes.
    pub peak_shard_bytes: usize,
    /// The estimated host working set the budget gate checked, in bytes.
    pub estimated_host_bytes: usize,
}

/// Monotonically increasing suffix so concurrent runs in one process never
/// collide on a spill directory.
static SPILL_DIRS: AtomicU64 = AtomicU64::new(0);

/// Owns the run's spill directory; removal is best-effort on drop so early
/// error returns clean up too.
struct SpillDir(PathBuf);

impl SpillDir {
    fn create(base: Option<&PathBuf>) -> Result<SpillDir, RunError> {
        let n = SPILL_DIRS.fetch_add(1, Ordering::Relaxed);
        let dir = base
            .cloned()
            .unwrap_or_else(std::env::temp_dir)
            .join(format!("twoface-stream-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| RunError::Io {
            context: format!("creating spill directory {}: {e}", dir.display()),
        })?;
        Ok(SpillDir(dir))
    }

    fn path(&self, name: String) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn io_err(context: &str, e: std::io::Error) -> RunError {
    RunError::Io { context: format!("{context}: {e}") }
}

/// Driver-side telemetry for the streamed passes, which run before (and
/// around) the simulated cluster. Everything here is host bookkeeping:
/// events are instants at simulated time zero (real pass durations ride in
/// [`OpEvent::wall_nanos`] when wall stamping is on), so the simulated
/// clocks — and therefore every gated result field — are untouched whether
/// telemetry is on or off.
///
/// Event encoding, since [`OpEvent`] carries no label string:
/// * [`OpKind::HostPass`]: one per pass, `peers = [pass_number]` (1-based,
///   matching the module docs), `elements` = the pass's dominant count.
/// * [`OpKind::Spill`]: one per shard/store file, `peers = [rank]`,
///   `elements` = bytes on disk; `initiator` distinguishes writes (`true`)
///   from reads (`false`).
/// * [`OpKind::Gauge`]: host high-water estimate (`initiator = true`) and
///   budget headroom (`initiator = false`), `elements` = bytes.
struct PipelineTelemetry {
    enabled: bool,
    wall: bool,
    events: Vec<OpEvent>,
    metrics: MetricsRegistry,
}

impl PipelineTelemetry {
    fn new(observability: &Observability) -> PipelineTelemetry {
        PipelineTelemetry {
            enabled: observability.enabled(),
            wall: observability.wall_time,
            events: Vec::new(),
            metrics: MetricsRegistry::new(),
        }
    }

    fn push(
        &mut self,
        kind: OpKind,
        elements: u64,
        peers: Vec<usize>,
        initiator: bool,
        wall_nanos: Option<u64>,
    ) {
        self.events.push(OpEvent {
            seq: self.events.len() as u64,
            kind,
            lane: Lane::Sync,
            class: PhaseClass::Other,
            start_seconds: 0.0,
            end_seconds: 0.0,
            elements,
            peers,
            initiator,
            fault: None,
            wall_nanos,
        });
    }

    /// Closes pass `number` (1-based): a [`OpKind::HostPass`] span with the
    /// real duration since `started` when wall stamping is on.
    fn pass(&mut self, number: usize, elements: u64, started: Instant) {
        if !self.enabled {
            return;
        }
        let wall = self.wall.then(|| started.elapsed().as_nanos() as u64);
        self.push(OpKind::HostPass, elements, vec![number], true, wall);
        self.metrics.inc("stream.passes", 1);
    }

    /// Records `bytes` written to rank `rank`'s shard or store file.
    fn spill_write(&mut self, rank: usize, bytes: u64) {
        if !self.enabled {
            return;
        }
        self.push(OpKind::Spill, bytes, vec![rank], true, None);
        self.metrics.inc("stream.spill_bytes_written", bytes);
        self.metrics.inc("stream.shards_written", 1);
    }

    /// Records `bytes` read back from rank `rank`'s shard or store file.
    fn spill_read(&mut self, rank: usize, bytes: u64) {
        if !self.enabled {
            return;
        }
        self.push(OpKind::Spill, bytes, vec![rank], false, None);
        self.metrics.inc("stream.spill_bytes_read", bytes);
        self.metrics.inc("stream.shards_read", 1);
    }

    /// Samples the host-memory high-water estimate and, under a declared
    /// budget, the remaining headroom.
    fn gauge(&mut self, estimated_host_bytes: u64, budget: Option<u64>) {
        if !self.enabled {
            return;
        }
        self.push(OpKind::Gauge, estimated_host_bytes, Vec::new(), true, None);
        self.metrics.inc("stream.host_bytes_high_water", estimated_host_bytes);
        if let Some(budget) = budget {
            let headroom = budget.saturating_sub(estimated_host_bytes);
            self.push(OpKind::Gauge, headroom, Vec::new(), false, None);
            self.metrics.observe("stream.budget_headroom_bytes", headroom);
        }
    }

    /// Appends the driver events to rank 0's `stream` (renumbered to
    /// continue its sequence) and returns the pipeline metrics for merging.
    fn attach(self, stream: &mut Vec<OpEvent>) -> MetricsRegistry {
        let base = stream.last().map_or(0, |e| e.seq + 1);
        for (i, mut event) in self.events.into_iter().enumerate() {
            event.seq = base + i as u64;
            stream.push(event);
        }
        self.metrics
    }
}

/// Size on disk of a just-written spill file; falls back to `accounted`
/// when the platform cannot stat it.
fn disk_bytes(path: &Path, accounted: usize) -> u64 {
    std::fs::metadata(path).map_or(accounted as u64, |m| m.len())
}

fn write_wide(out: &mut impl std::io::Write, t: &Triplet) -> std::io::Result<()> {
    out.write_all(&(t.row as u64).to_le_bytes())?;
    out.write_all(&(t.col as u64).to_le_bytes())?;
    out.write_all(&t.val.to_le_bytes())
}

fn read_wide(input: &mut impl Read) -> std::io::Result<Triplet> {
    let mut buf = [0u8; 24];
    input.read_exact(&mut buf)?;
    let row = u64::from_le_bytes(buf[0..8].try_into().expect("8 bytes")) as usize;
    let col = u64::from_le_bytes(buf[8..16].try_into().expect("8 bytes")) as usize;
    let val = f64::from_le_bytes(buf[16..24].try_into().expect("8 bytes"));
    Ok(Triplet::new(row, col, val))
}

fn write_small(out: &mut impl std::io::Write, t: &SmallTriplet) -> std::io::Result<()> {
    out.write_all(&t.row.to_le_bytes())?;
    out.write_all(&t.col.to_le_bytes())?;
    out.write_all(&t.val.to_le_bytes())
}

fn read_small(input: &mut impl Read) -> std::io::Result<SmallTriplet> {
    let mut buf = [0u8; SMALL_ENTRY_BYTES];
    input.read_exact(&mut buf)?;
    let row = u32::from_le_bytes(buf[0..4].try_into().expect("4 bytes"));
    let col = u32::from_le_bytes(buf[4..8].try_into().expect("4 bytes"));
    let val = f64::from_le_bytes(buf[8..16].try_into().expect("8 bytes"));
    Ok(SmallTriplet { row, col, val })
}

/// Per-stripe store metadata kept in memory while entries live on disk.
struct StripeMeta {
    stripe: usize,
    nnz: usize,
    unique: usize,
}

/// One rank's serialized compact structures plus the metadata the executor
/// and the cost charges need without touching the file.
struct RankStore {
    path: PathBuf,
    stripes: Vec<StripeMeta>,
    sync_nnz: usize,
    nonempty_panels: usize,
}

/// Serializes one rank's built structures in execution order: per async
/// stripe (ascending) its row-major entries then its unique columns, then
/// the sync/local entries (row-major). Returns the store handle and the
/// bytes written.
fn write_store(path: PathBuf, matrices: &RankMatrices) -> Result<(RankStore, usize), RunError> {
    let file = File::create(&path)
        .map_err(|e| io_err(&format!("creating store {}", path.display()), e))?;
    let mut out = BufWriter::new(file);
    let mut stripes = Vec::with_capacity(matrices.asynchronous.num_stripes());
    let mut bytes = 0usize;
    let ctx = "writing rank store";
    for stripe in matrices.asynchronous.stripes() {
        for t in stripe.entries_row_major() {
            write_small(&mut out, t).map_err(|e| io_err(ctx, e))?;
        }
        for c in &stripe.unique_cols {
            out.write_all(&c.to_le_bytes()).map_err(|e| io_err(ctx, e))?;
        }
        bytes += stripe.nnz() * SMALL_ENTRY_BYTES + stripe.unique_cols.len() * 4;
        stripes.push(StripeMeta {
            stripe: stripe.stripe,
            nnz: stripe.nnz(),
            unique: stripe.unique_cols.len(),
        });
    }
    for t in matrices.sync_local.entries() {
        write_small(&mut out, t).map_err(|e| io_err(ctx, e))?;
    }
    bytes += matrices.sync_local.nnz() * SMALL_ENTRY_BYTES;
    out.flush().map_err(|e| io_err(ctx, e))?;
    let store = RankStore {
        path,
        stripes,
        sync_nnz: matrices.sync_local.nnz(),
        nonempty_panels: matrices.sync_local.num_nonempty_panels(),
    };
    Ok((store, bytes))
}

/// Executes Two-Face out of core on a chunked triplet source.
///
/// The dense operand is the deterministically generated `B` of
/// [`Problem::with_generated_b`](crate::Problem::with_generated_b), staged
/// per rank without materializing the full matrix — which is also what
/// makes the differential contract checkable: at overlap scales, build the
/// resident problem from the same source with the same seed and the outputs
/// are bit-identical.
///
/// # Errors
///
/// * [`RunError::Shape`] for infeasible layouts or out-of-bounds draws;
/// * [`RunError::HostBudgetExceeded`] when even the out-of-core working set
///   exceeds [`StreamOptions::memory_budget`];
/// * [`RunError::OutOfMemory`] under the same *simulated* per-node gate as
///   the resident path;
/// * [`RunError::Io`] when spill or store files cannot be written or read
///   back (naming the rank and the file for store reads).
pub fn run_twoface_streamed(
    source: &mut dyn TripletSource,
    k: usize,
    p: usize,
    stripe_width: usize,
    cost: &CostModel,
    options: &StreamOptions,
) -> Result<StreamedRun, RunError> {
    let rows = source.rows();
    let cols = source.cols();
    if p == 0 || stripe_width == 0 || p > rows.max(1) || p > cols.max(1) {
        return Err(RunError::Shape {
            context: format!(
                "cannot lay out a {rows}x{cols} matrix over {p} nodes with stripe width \
                 {stripe_width}"
            ),
        });
    }
    let layout = OneDimLayout::new(rows, cols, p, stripe_width);
    let effective = options.config.effective_cost(cost);
    let coefficients = options.coefficients.unwrap_or_else(|| ModelCoefficients::from(&effective));
    let workers = resolve_workers(options.workers);
    let spill = SpillDir::create(options.spill_dir.as_ref())?;
    let mut spilled_bytes = 0usize;
    let resolved = resolve_observability(&options.observability);
    let mut telemetry = PipelineTelemetry::new(&resolved.observability);
    let mut pass_started = Instant::now();

    // --- Pass 1: route raw draws to per-rank shard files. ---
    // One chunk plus the write buffers is all that's resident.
    let chunk_nnz = match options.memory_budget {
        Some(budget) => options.chunk_nnz.min((budget / 8 / NNZ_BYTES).max(1 << 14)),
        None => options.chunk_nnz,
    };
    let raw_paths: Vec<PathBuf> = (0..p).map(|r| spill.path(format!("raw.{r}"))).collect();
    {
        let mut writers: Vec<BufWriter<File>> = raw_paths
            .iter()
            .map(|path| {
                File::create(path)
                    .map(BufWriter::new)
                    .map_err(|e| io_err(&format!("creating shard {}", path.display()), e))
            })
            .collect::<Result<_, _>>()?;
        let mut chunk: Vec<Triplet> = Vec::new();
        loop {
            chunk.clear();
            if source.next_chunk(chunk_nnz, &mut chunk) == 0 {
                break;
            }
            for t in &chunk {
                if t.row >= rows || t.col >= cols {
                    return Err(RunError::Shape {
                        context: format!(
                            "source drew ({}, {}) outside {rows}x{cols}",
                            t.row, t.col
                        ),
                    });
                }
                write_wide(&mut writers[layout.owner_of_row(t.row)], t)
                    .map_err(|e| io_err("spilling raw shard", e))?;
                spilled_bytes += NNZ_BYTES;
            }
        }
        for w in &mut writers {
            w.flush().map_err(|e| io_err("flushing raw shard", e))?;
        }
    }
    if telemetry.enabled {
        for (rank, path) in raw_paths.iter().enumerate() {
            telemetry.spill_write(rank, disk_bytes(path, 0));
        }
    }
    telemetry.pass(1, (spilled_bytes / NNZ_BYTES) as u64, pass_started);

    // --- Pass 2: normalize + profile per rank, one shard at a time. ---
    // Shards partition the draw stream by row and `normalize_triplets` sorts
    // by (row, col) with in-order duplicate summing, so the concatenation of
    // normalized shards is exactly the resident matrix.
    let mut profiles: Vec<NodeProfile> = Vec::with_capacity(p);
    let mut nnz_by_rank: Vec<usize> = Vec::with_capacity(p);
    let mut peak_shard_bytes = 0usize;
    let norm_paths: Vec<PathBuf> = (0..p).map(|r| spill.path(format!("norm.{r}"))).collect();
    pass_started = Instant::now();
    for rank in 0..p {
        let mut shard: Vec<Triplet> = Vec::new();
        {
            let file = File::open(&raw_paths[rank]).map_err(|e| io_err("opening raw shard", e))?;
            let raw_len =
                file.metadata().map_err(|e| io_err("sizing raw shard", e))?.len() as usize;
            telemetry.spill_read(rank, raw_len as u64);
            let count = raw_len / NNZ_BYTES;
            shard.reserve_exact(count);
            let mut reader = BufReader::new(file);
            for _ in 0..count {
                shard.push(read_wide(&mut reader).map_err(|e| io_err("reading raw shard", e))?);
            }
        }
        peak_shard_bytes = peak_shard_bytes.max(shard.len() * NNZ_BYTES);
        normalize_triplets(&mut shard);
        profiles.push(NodeProfile::build_from_rows(&shard, &layout, rank));
        nnz_by_rank.push(shard.len());
        let mut out = BufWriter::new(
            File::create(&norm_paths[rank]).map_err(|e| io_err("creating normalized shard", e))?,
        );
        for t in &shard {
            write_wide(&mut out, t).map_err(|e| io_err("spilling normalized shard", e))?;
        }
        out.flush().map_err(|e| io_err("flushing normalized shard", e))?;
        spilled_bytes += shard.len() * NNZ_BYTES;
        if telemetry.enabled {
            let written = disk_bytes(&norm_paths[rank], shard.len() * NNZ_BYTES);
            telemetry.spill_write(rank, written);
        }
        let _ = std::fs::remove_file(&raw_paths[rank]);
    }
    let realized_nnz: usize = nnz_by_rank.iter().sum();
    telemetry.pass(2, realized_nnz as u64, pass_started);

    // --- Pass 3: classify from profiles, with the resident budget rule. ---
    pass_started = Instant::now();
    let (plan, operands) = plan_from_profiles(
        profiles,
        layout.clone(),
        k,
        &coefficients,
        effective.memory_per_node,
        options.classifier,
        workers,
    );
    let plan = Arc::new(plan);
    let required_sim = memory_gate(
        &operands,
        |rank| planned_memory_extra(&plan, k, rank),
        effective.memory_per_node,
    )?;

    // Host working-set estimate: the worst of the build pass (one shard plus
    // its structures) and the execute pass (dense operands plus every rank's
    // bounded transients).
    let build_peak = (0..p)
        .map(|rank| nnz_by_rank[rank] * (NNZ_BYTES + 2 * SMALL_ENTRY_BYTES + 4))
        .max()
        .unwrap_or(0);
    let dense_bytes = (rows + cols) * k * SCALAR_BYTES;
    let exec_transients: usize = (0..p)
        .map(|rank| {
            let mut max_seg = 0usize;
            let mut max_fetch = 0usize;
            for &(stripe, class) in &plan.classification(rank).classes {
                if class == StripeClass::Async {
                    if let Some(s) = plan.profile(rank).stripe(stripe) {
                        max_seg = max_seg.max(s.nnz * SMALL_ENTRY_BYTES + s.rows_needed() * 4);
                        max_fetch = max_fetch.max(s.rows_needed() * k * SCALAR_BYTES);
                    }
                }
            }
            max_seg + 2 * max_fetch + SYNC_CHUNK_ENTRIES * SMALL_ENTRY_BYTES
        })
        .sum();
    let estimated_host_bytes =
        build_peak.max(dense_bytes + exec_transients) + chunk_nnz * NNZ_BYTES;
    if let Some(budget) = options.memory_budget {
        if estimated_host_bytes > budget {
            return Err(RunError::HostBudgetExceeded { required: estimated_host_bytes, budget });
        }
    }
    telemetry.gauge(estimated_host_bytes as u64, options.memory_budget.map(|b| b as u64));
    telemetry.pass(3, layout.num_stripes() as u64, pass_started);

    // --- Pass 4: build compact structures per rank, serialize, drop. ---
    pass_started = Instant::now();
    let mut stores: Vec<RankStore> = Vec::with_capacity(p);
    let mut store_bytes = 0u64;
    for rank in 0..p {
        let mut shard: Vec<Triplet> = Vec::with_capacity(nnz_by_rank[rank]);
        {
            telemetry.spill_read(rank, (nnz_by_rank[rank] * NNZ_BYTES) as u64);
            let mut reader = BufReader::new(
                File::open(&norm_paths[rank]).map_err(|e| io_err("opening normalized shard", e))?,
            );
            for _ in 0..nnz_by_rank[rank] {
                shard.push(
                    read_wide(&mut reader).map_err(|e| io_err("reading normalized shard", e))?,
                );
            }
        }
        let matrices =
            RankMatrices::build_from_rows(&shard, &plan, rank, options.config.row_panel_height);
        drop(shard);
        let (store, bytes) = write_store(spill.path(format!("store.{rank}")), &matrices)?;
        spilled_bytes += bytes;
        if telemetry.enabled {
            let written = disk_bytes(&store.path, bytes);
            store_bytes += written;
            telemetry.spill_write(rank, written);
        }
        stores.push(store);
        let _ = std::fs::remove_file(&norm_paths[rank]);
    }
    telemetry.pass(4, store_bytes, pass_started);

    // --- Pass 5: execute the resident rank body over each rank's store. ---
    pass_started = Instant::now();
    let b_blocks: Vec<Arc<Vec<f64>>> =
        (0..p).map(|rank| Arc::new(generated_b_block(layout.col_range(rank), k))).collect();
    let exec = ExecOpts {
        k,
        compute: options.compute_values,
        panel_height: options.config.row_panel_height,
        workers,
    };
    // The executors read the stores back inside the rank threads; charge
    // those reads up front at the driver (structural runs skip the sync
    // entries, so only the async portion is charged without compute).
    if telemetry.enabled {
        for (rank, store) in stores.iter().enumerate() {
            let async_bytes: usize =
                store.stripes.iter().map(|m| m.nnz * SMALL_ENTRY_BYTES + m.unique * 4).sum();
            let sync_bytes = if exec.compute { store.sync_nnz * SMALL_ENTRY_BYTES } else { 0 };
            telemetry.spill_read(rank, (async_bytes + sync_bytes) as u64);
        }
    }
    // Open every store before the cluster starts, so a vanished spill file
    // fails the run up front instead of inside a rank thread.
    let files: Vec<File> = stores
        .iter()
        .enumerate()
        .map(|(rank, store)| {
            File::open(&store.path).map_err(|e| {
                io_err(&format!("rank {rank} opening store {}", store.path.display()), e)
            })
        })
        .collect::<Result<_, _>>()?;
    let cluster = Cluster::new(p, effective);
    cluster.set_observability(resolved.observability.clone());
    let mut outputs = cluster.run(|ctx| {
        let rank = ctx.rank();
        let source = StoreSource::new(rank, &stores[rank], &files[rank]);
        twoface_rank(ctx, source, &plan, &b_blocks[rank], &options.config, &exec)
    });
    telemetry.pass(5, realized_nnz as u64, pass_started);

    let pipeline_metrics = telemetry.attach(&mut outputs[0].events);
    let (blocks, mut report) = harvest(outputs, &resolved)?;
    report.metrics.merge(&pipeline_metrics);
    let report = ExecutionReport {
        algorithm: "TwoFace (streamed)".to_string(),
        k,
        memory_peak_bytes: required_sim,
        output: exec.compute.then(|| stack_blocks(rows, k, &blocks)),
        ..report
    };
    drop(spill);
    Ok(StreamedRun { report, realized_nnz, spilled_bytes, peak_shard_bytes, estimated_host_bytes })
}

/// [`StripeSource`] over one rank's store file, read front to back — async
/// stripes in ascending order, then the sync entries — into one reused
/// entry buffer, so at most one stripe or one sync chunk of the rank's
/// nonzeros is resident at a time.
struct StoreSource<'a> {
    rank: usize,
    store: &'a RankStore,
    reader: BufReader<&'a File>,
    entries: Vec<SmallTriplet>,
    unique_cols: Vec<u32>,
}

impl<'a> StoreSource<'a> {
    fn new(rank: usize, store: &'a RankStore, file: &'a File) -> StoreSource<'a> {
        StoreSource {
            rank,
            store,
            reader: BufReader::new(file),
            entries: Vec::new(),
            unique_cols: Vec::new(),
        }
    }

    /// A failed read as the typed error naming the rank and its store.
    fn read_error(&self, e: std::io::Error) -> RankError {
        RankError::Io(format!(
            "rank {} reading store {}: {e}",
            self.rank,
            self.store.path.display()
        ))
    }

    fn read_entry(&mut self) -> Result<SmallTriplet, RankError> {
        read_small(&mut self.reader).map_err(|e| self.read_error(e))
    }
}

impl StripeSource for StoreSource<'_> {
    type Error = RankError;

    fn for_each_async(
        &mut self,
        mut visit: impl FnMut(StripeView<'_>) -> Result<(), RankError>,
    ) -> Result<(), RankError> {
        let store = self.store;
        for meta in &store.stripes {
            self.entries.clear();
            for _ in 0..meta.nnz {
                let t = self.read_entry()?;
                self.entries.push(t);
            }
            self.unique_cols.clear();
            for _ in 0..meta.unique {
                let mut buf = [0u8; 4];
                self.reader.read_exact(&mut buf).map_err(|e| self.read_error(e))?;
                self.unique_cols.push(u32::from_le_bytes(buf));
            }
            visit(StripeView {
                stripe: meta.stripe,
                entries: &self.entries,
                unique_cols: &self.unique_cols,
            })?;
        }
        Ok(())
    }

    fn sync_counts(&self) -> (usize, usize) {
        (self.store.sync_nnz, self.store.nonempty_panels)
    }

    fn for_each_sync_chunk(
        &mut self,
        mut visit: impl FnMut(&[SmallTriplet]),
    ) -> Result<(), RankError> {
        let mut remaining = self.store.sync_nnz;
        let mut pending: Option<SmallTriplet> = None;
        while remaining > 0 || pending.is_some() {
            self.entries.clear();
            self.entries.extend(pending.take());
            while remaining > 0 {
                let t = self.read_entry()?;
                remaining -= 1;
                // A full chunk still takes the rest of its last row.
                let full = self.entries.len() >= SYNC_CHUNK_ENTRIES;
                if full && self.entries.last().is_some_and(|last| last.row != t.row) {
                    pending = Some(t);
                    break;
                }
                self.entries.push(t);
            }
            visit(&self.entries);
        }
        Ok(())
    }
}

/// The process's peak resident set size (`VmHWM`) in bytes, read from
/// `/proc/self/status`. Returns `None` on platforms or kernels that don't
/// expose it. Note the counter is a process-lifetime high-water mark: to
/// attribute a peak to one phase, measure the cheap phase first.
pub fn peak_rss_bytes() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: usize = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;
    use twoface_matrix::gen::ErdosChunks;
    use twoface_partition::PartitionPlan;

    #[test]
    fn wide_and_small_roundtrip() {
        let mut buf = Vec::new();
        let wide = Triplet::new(123_456_789_012, 7, -1.5);
        write_wide(&mut buf, &wide).unwrap();
        let small = SmallTriplet::new(42, 99, 0.25);
        write_small(&mut buf, &small).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_wide(&mut cursor).unwrap(), wide);
        assert_eq!(read_small(&mut cursor).unwrap(), small);
    }

    #[test]
    fn truncated_store_is_a_typed_read_error() {
        let a = twoface_matrix::gen::erdos_renyi(64, 64, 600, 5);
        let plan = PartitionPlan::build_uniform(
            &a,
            OneDimLayout::new(64, 64, 4, 4),
            8,
            StripeClass::Async,
        );
        let matrices = RankMatrices::build(&a, &plan, 1, 4);
        let spill = SpillDir::create(None).unwrap();
        let (store, bytes) = write_store(spill.path("store.1".to_string()), &matrices).unwrap();
        File::options().write(true).open(&store.path).unwrap().set_len(bytes as u64 / 2).unwrap();
        let file = File::open(&store.path).unwrap();
        let mut source = StoreSource::new(1, &store, &file);
        let err = source
            .for_each_async(|_| Ok(()))
            .and_then(|()| source.for_each_sync_chunk(|_| {}))
            .expect_err("half the store is gone");
        match err.into_run_error(1, Vec::new()) {
            RunError::Io { context } => {
                assert!(context.contains("rank 1"), "{context}");
                assert!(context.contains(&store.path.display().to_string()), "{context}");
            }
            other => panic!("expected an I/O error, got {other:?}"),
        }
    }

    #[test]
    fn sync_chunks_cover_the_entries_without_splitting_rows() {
        // One rank holds every nonzero — seven per row, so the chunk cap
        // falls mid-row — and enough of them for more than one chunk.
        let rows = SYNC_CHUNK_ENTRIES / 7 + 1000;
        let triplets: Vec<(usize, usize, f64)> =
            (0..rows).flat_map(|r| (0..7).map(move |j| (r, (r + 3 * j) % rows, 1.0))).collect();
        let a = twoface_matrix::CooMatrix::from_triplets(rows, rows, triplets).unwrap();
        let layout = OneDimLayout::new(rows, rows, 1, 64);
        let plan = PartitionPlan::build_uniform(&a, layout, 8, StripeClass::Sync);
        let matrices = RankMatrices::build(&a, &plan, 0, 32);
        let spill = SpillDir::create(None).unwrap();
        let (store, _) = write_store(spill.path("store.0".to_string()), &matrices).unwrap();
        let file = File::open(&store.path).unwrap();
        let mut chunks: Vec<Vec<SmallTriplet>> = Vec::new();
        StoreSource::new(0, &store, &file)
            .for_each_sync_chunk(|chunk| chunks.push(chunk.to_vec()))
            .unwrap();
        assert!(chunks.len() > 1, "the fixture spans several chunks");
        for pair in chunks.windows(2) {
            assert_ne!(pair[0].last().unwrap().row, pair[1][0].row, "a row straddles two chunks");
        }
        assert_eq!(chunks.concat(), matrices.sync_local.entries());
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if let Some(bytes) = peak_rss_bytes() {
            assert!(bytes > 0);
        }
    }

    #[test]
    fn infeasible_budget_is_rejected_up_front() {
        let mut source = ErdosChunks::new(512, 512, 4000, 9);
        let err = run_twoface_streamed(
            &mut source,
            8,
            4,
            32,
            &CostModel::delta(),
            &StreamOptions { memory_budget: Some(1), ..Default::default() },
        )
        .unwrap_err();
        assert!(matches!(err, RunError::HostBudgetExceeded { .. }), "got {err:?}");
    }

    #[test]
    fn degenerate_layout_is_a_shape_error() {
        let mut source = ErdosChunks::new(4, 4, 10, 1);
        let err = run_twoface_streamed(
            &mut source,
            8,
            16,
            2,
            &CostModel::delta(),
            &StreamOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, RunError::Shape { .. }));
    }
}
